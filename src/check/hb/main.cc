/**
 * @file
 * unet-hb: command-line front end for the happens-before race auditor
 * and shardability analysis.
 *
 *   unet-hb --list
 *   unet-hb fig5 --report fig5-shardability.json
 *   unet-hb serve --report - --verbose
 *   unet-hb planted-ww            (expected to exit 1)
 *   unet-hb fig5 --salt 3         (replay under a perturbation salt)
 *
 * Runs any entry of the scenario registry (check/scenario.hh) that
 * unet-explore runs. Exit status: 0 when the scenario ran race-free,
 * 1 when the auditor flagged at least one cross-shard race, 2 on usage
 * errors, when a planted race goes unflagged, or when the build has
 * UNET_CHECK disabled.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "check/hb/report.hh"
#include "check/scenario.hh"
#include "sim/perturb.hh"

#if !defined(UNET_CHECK) || !UNET_CHECK

int
main()
{
    std::cerr << "unet-hb: this build has UNET_CHECK disabled; "
                 "reconfigure with -DUNET_CHECK=ON\n";
    return 2;
}

#else

namespace check = unet::check;
namespace hb = unet::check::hb;

namespace {

int
usage(std::ostream &os, int status)
{
    os << "usage: unet-hb <scenario> [options]\n"
          "       unet-hb --list\n"
          "\n"
          "options:\n"
          "  --report F   write the shardability report to F "
          "(\"-\" = stdout)\n"
          "  --verbose    add access counts and the active salt to "
          "the report\n"
          "  --salt N     run under UNET_PERTURB salt N (replay a "
          "flagged race)\n";
    return status;
}

void
printSite(const hb::AccessSite &site, const std::string &domain)
{
    std::cerr << "    " << site.op << " [" << domain << "] at "
              << site.file << ":" << site.line << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::string reportPath;
    bool verbose = false;
    std::uint64_t salt = 0;
    bool haveSalt = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(std::cout, 0);
        if (arg == "--list") {
            check::listScenarios(std::cout);
            return 0;
        }
        if (arg == "--verbose") {
            verbose = true;
            continue;
        }
        if (arg == "--report" || arg == "--salt") {
            if (i + 1 >= argc) {
                std::cerr << "unet-hb: " << arg
                          << " needs an argument\n";
                return usage(std::cerr, 2);
            }
            std::string value = argv[++i];
            if (arg == "--report") {
                reportPath = value;
            } else {
                char *end = nullptr;
                salt = std::strtoull(value.c_str(), &end, 10);
                if (!end || *end != '\0' || end == value.c_str()) {
                    std::cerr << "unet-hb: bad salt '" << value
                              << "'\n";
                    return 2;
                }
                haveSalt = true;
            }
            continue;
        }
        if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unet-hb: unknown option " << arg << "\n";
            return usage(std::cerr, 2);
        }
        if (!name.empty()) {
            std::cerr << "unet-hb: one scenario per run (got '" << name
                      << "' and '" << arg << "')\n";
            return 2;
        }
        name = arg;
    }

    if (name.empty())
        return usage(std::cerr, 2);
    const check::ScenarioEntry *scenario = check::findScenario(name);
    if (!scenario) {
        std::cerr << "unet-hb: unknown scenario '" << name
                  << "' (try --list)\n";
        return 2;
    }

    hb::AuditResult result;
    {
        // Scoped so a --salt override does not leak into atexit paths.
        std::unique_ptr<unet::sim::perturb::ScopedSalt> scoped;
        if (haveSalt)
            scoped = std::make_unique<unet::sim::perturb::ScopedSalt>(
                salt);
        result = hb::audit(*scenario);
    }

    if (!reportPath.empty()) {
        const std::string &text =
            verbose ? result.reportVerbose : result.report;
        if (reportPath == "-") {
            std::cout << text;
        } else {
            std::ofstream out(reportPath);
            if (!out) {
                std::cerr << "unet-hb: cannot write " << reportPath
                          << "\n";
                return 2;
            }
            out << text;
        }
    }

    if (result.races.empty()) {
        std::cerr << "unet-hb: " << name << ": no races ("
                  << result.objects.size() << " objects audited, "
                  << result.chains << " clock chains)\n";
        if (scenario->plantedRace) {
            std::cerr << "unet-hb: " << name
                      << " carries a PLANTED race the auditor failed "
                         "to flag\n";
            return 2;
        }
        return 0;
    }

    std::cerr << "unet-hb: " << name << ": " << result.races.size()
              << " cross-shard race(s)\n";
    for (const hb::RaceRecord &race : result.races) {
        std::cerr << "  " << race.kind << " race on '" << race.object
                  << "'\n";
        printSite(race.first, race.firstDomain);
        printSite(race.second, race.secondDomain);
        std::cerr << "    replay: UNET_PERTURB=" << race.salt
                  << " unet-hb " << name << "\n";
    }
    return 1;
}

#endif // UNET_CHECK
