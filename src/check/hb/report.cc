#include "check/hb/report.hh"

#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>

#include "check/access.hh"
#include "check/scenario.hh"
#include "obs/export.hh"
#include "sim/perturb.hh"

namespace unet::check::hb {

namespace {

using obs::jsonEscape;

/**
 * Trim an absolute source path to its repo-relative tail so reports
 * are comparable across checkouts (source_location::file_name gives
 * whatever the compiler was invoked with).
 */
std::string_view
trimPath(std::string_view path)
{
    for (std::string_view root : {"/src/", "/tests/", "/tools/"}) {
        auto pos = path.find(root);
        if (pos != std::string_view::npos)
            return path.substr(pos + 1);
    }
    return path;
}

void
writeSite(std::ostream &os, const std::string &domain,
          const AccessSite &site)
{
    os << "{\"domain\": \"" << jsonEscape(domain) << "\", \"op\": \""
       << jsonEscape(site.op) << "\", \"site\": \""
       << jsonEscape(trimPath(site.file)) << ':' << site.line
       << "\"}";
}

} // namespace

const char *
classify(const ObjectSummary &obj)
{
    if (obj.domains.size() > 1)
        return "cross-shard";
    if (obj.domains.size() == 1)
        return "shard-local";
    if (obj.reads + obj.writes > 0)
        return "main-context";
    return "idle";
}

void
writeReport(const Auditor &auditor, const std::string &topology,
            std::ostream &os, bool verbose)
{
    // Start from the accessed objects, then add idle entries for
    // every live guard the run never touched — a coverage gap should
    // be visible in the report, not silently absent. Labels dedup
    // through the set (several unlabeled guards share a description).
    std::map<std::string, const ObjectSummary *> rows;
    for (const auto &[label, obj] : auditor.objects())
        rows.emplace(label, &obj);
#if defined(UNET_CHECK) && UNET_CHECK
    static const ObjectSummary idleSummary;
    ContextGuard::forEachEnrolled([&](const ContextGuard &g) {
        rows.emplace(g.label(), &idleSummary);
    });
#endif

    std::map<std::string_view, std::size_t> byClass;
    os << "{\n";
    os << "  \"schema\": \"unet-hb-shardability-v1\",\n";
    os << "  \"topology\": \"" << jsonEscape(topology) << "\",\n";
    os << "  \"objects\": [";
    bool first = true;
    for (const auto &[label, obj] : rows) {
        const char *cls = classify(*obj);
        ++byClass[cls];
        os << (first ? "" : ",") << "\n    {\"object\": \""
           << jsonEscape(label) << "\", \"class\": \"" << cls
           << "\", \"domains\": [";
        first = false;
        bool firstDom = true;
        for (const auto &d : obj->domains) {
            os << (firstDom ? "" : ", ") << '"' << jsonEscape(d)
               << '"';
            firstDom = false;
        }
        os << "], \"edges\": [";
        bool firstEdge = true;
        for (const auto &e : edgeNames(obj->edges)) {
            os << (firstEdge ? "" : ", ") << '"' << e << '"';
            firstEdge = false;
        }
        os << "], \"classify_only\": "
           << (obj->classifyOnly ? "true" : "false")
           << ", \"races\": " << obj->races << "}";
    }
    os << "\n  ],\n";

    os << "  \"races\": [";
    first = true;
    for (const auto &r : auditor.races()) {
        os << (first ? "" : ",") << "\n    {\"object\": \""
           << jsonEscape(r.object) << "\", \"kind\": \"" << r.kind
           << "\", \"first\": ";
        first = false;
        writeSite(os, r.firstDomain, r.first);
        os << ", \"second\": ";
        writeSite(os, r.secondDomain, r.second);
        os << "}";
    }
    os << "\n  ],\n";

    os << "  \"summary\": {\"objects\": " << rows.size()
       << ", \"cross_shard\": " << byClass["cross-shard"]
       << ", \"shard_local\": " << byClass["shard-local"]
       << ", \"main_context\": " << byClass["main-context"]
       << ", \"idle\": " << byClass["idle"]
       << ", \"races\": " << auditor.races().size() << "}";

    if (verbose) {
        // Non-canonical: counts and the salt vary run to run, so
        // they stay out of the byte-stable form above.
        os << ",\n  \"verbose\": {\"salt\": " << sim::perturb::salt()
           << ", \"chains\": " << auditor.chainCount()
           << ", \"counts\": {";
        first = true;
        for (const auto &[label, obj] : auditor.objects()) {
            os << (first ? "" : ", ") << '"' << jsonEscape(label)
               << "\": {\"reads\": " << obj.reads
               << ", \"writes\": " << obj.writes << '}';
            first = false;
        }
        os << "}}";
    }
    os << "\n}\n";
}

std::string
reportString(const Auditor &auditor, const std::string &topology,
             bool verbose)
{
    std::ostringstream os;
    writeReport(auditor, topology, os, verbose);
    return os.str();
}

AuditResult
audit(const ScenarioEntry &scenario)
{
    std::unique_ptr<Scenario> rig = scenario.make();
    Auditor auditor(rig->simulation());
    rig->simulation().run();
    rig->checkEnd();

    AuditResult r;
    r.races = auditor.races();
    r.objects = auditor.objects();
    r.report = reportString(auditor, scenario.name);
    r.reportVerbose =
        reportString(auditor, scenario.name, /*verbose=*/true);
    r.chains = auditor.chainCount();
    return r;
}

} // namespace unet::check::hb
