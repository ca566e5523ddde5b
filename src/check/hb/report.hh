/**
 * @file
 * Shardability report over an Auditor's observations.
 *
 * The report is the auditor's machine-readable product: for one
 * scenario run (check/scenario.hh), every instrumented object
 * classified by how it could live under the planned parallel-DES
 * backend:
 *
 *  - "shard-local":  accessed under exactly one shard domain — the
 *    object can live wholly inside that shard with no cross-shard
 *    ordering needed;
 *  - "cross-shard":  accessed under two or more domains — the object
 *    needs either partitioning or an explicit ordering protocol; its
 *    edge set says which scheduler edges currently order it;
 *  - "main-context": only ever touched from untagged contexts (boot,
 *    harness, fixtures) — setup state, not a sharding concern;
 *  - "idle":         a live guard the run never touched (enumerated
 *    via check::Enrolled so coverage gaps are visible, not silent).
 *
 * The canonical form is byte-stable across UNET_PERTURB salts for
 * race-free scenarios: objects sort by label, domains and edge names
 * sort lexicographically, and volatile values (access counts, the
 * salt) are excluded — they land in the optional verbose section
 * only. HbReport.CanonicalReportStableAcrossSalts diffs the
 * canonical bytes across salts 1..5.
 */

#ifndef UNET_CHECK_HB_REPORT_HH
#define UNET_CHECK_HB_REPORT_HH

#include <iosfwd>
#include <string>

#include "check/hb/auditor.hh"

namespace unet::check {
struct ScenarioEntry;
}

namespace unet::check::hb {

/** Classification of one object for the shardability report. */
const char *classify(const ObjectSummary &obj);

/**
 * Write the canonical JSON report for @p auditor to @p os.
 * @p topology names the run ("fig5", "serve", ...). With @p verbose,
 * a non-canonical "verbose" section with access counts and the active
 * salt is appended (excluded from the canonical/stable form).
 */
void writeReport(const Auditor &auditor, const std::string &topology,
                 std::ostream &os, bool verbose = false);

/** The canonical report as a string (tests diff this across salts). */
std::string reportString(const Auditor &auditor,
                         const std::string &topology,
                         bool verbose = false);

/** What one audited scenario run produced. */
struct AuditResult
{
    std::vector<RaceRecord> races;
    std::map<std::string, ObjectSummary> objects;
    std::string report;        ///< canonical shardability report
    std::string reportVerbose; ///< + counts and salt (non-canonical)
    std::size_t chains = 0;    ///< clock chains the run needed
};

/**
 * Audit one scenario: build @p scenario, attach an Auditor, run the
 * event loop to quiescence and check the end-state oracles, then
 * harvest the races and the report (named after the entry).
 */
AuditResult audit(const ScenarioEntry &scenario);

} // namespace unet::check::hb

#endif // UNET_CHECK_HB_REPORT_HH
