/**
 * @file
 * The scenario registry: every closed rig the schedule checkers run.
 *
 * A scenario is a small, fully self-contained simulation — nodes,
 * fibers, traffic and oracles — built from scratch for every run. Its
 * constructor builds the rig, binds each fiber to its host's shard
 * domain and schedules the traffic; whoever runs it owns the event
 * loop. Both schedule checkers run the same entries:
 *
 *  - unet-explore (explore/explore.hh) enumerates the same-tick
 *    schedule space, checking the oracles after every event;
 *  - unet-hb (hb/report.hh) runs it once under the happens-before
 *    Auditor and writes the shardability report.
 *
 * The entries and their rigs live in scenarios.cc; `--list` on either
 * checker prints the table.
 */

#ifndef UNET_CHECK_SCENARIO_HH
#define UNET_CHECK_SCENARIO_HH

#include <iosfwd>
#include <memory>
#include <span>
#include <string_view>

#include "obs/digest.hh"
#include "sim/simulation.hh"

namespace unet::check {

/** One built scenario: the simulation plus its invariant oracles. */
class Scenario
{
  public:
    virtual ~Scenario() = default;

    /** The simulation whose event queue the checker runs. */
    virtual sim::Simulation &simulation() = 0;

    /** Invariants that must hold after every event. Panic on
     *  violation (UNET_PANIC; the explorer converts it into a
     *  counterexample). */
    virtual void checkStep() {}

    /** End-state invariants, evaluated once the queue drains:
     *  exactly-once / in-order delivery, fibers finished. */
    virtual void checkEnd() {}

    /** Fold scenario-specific progress state into the explorer's
     *  pruning digest. Anything two *semantically different* states
     *  could share must be mixed in here, or pruning will conflate
     *  them. */
    virtual void mixState(obs::Digest &digest) const { (void)digest; }
};

/** One registry entry. */
struct ScenarioEntry
{
    const char *name;
    const char *description;
    /** The rig carries a planted cross-shard race: the auditor is
     *  expected to fire, and a clean audit is a detector failure. */
    bool plantedRace;
    std::unique_ptr<Scenario> (*make)();
};

/** Every registered scenario, in a fixed order. */
std::span<const ScenarioEntry> scenarios();

/** Look up a scenario by name; nullptr when unknown. */
const ScenarioEntry *findScenario(std::string_view name);

/** Print the registry, one name line and one indented description
 *  line per entry (both checkers' --list). */
void listScenarios(std::ostream &os);

} // namespace unet::check

#endif // UNET_CHECK_SCENARIO_HH
