/**
 * @file
 * Schedule-space model checking.
 *
 * The perturbation plane (sim/perturb.hh) samples same-tick orderings
 * with a salted tie-break; this module enumerates them. An explorer
 * run replaces the salt with an explicit ScheduleArbiter: whenever two
 * or more permutable events are eligible at the same tick, the run
 * either follows a forced prefix of recorded decisions or takes the
 * FIFO default and enqueues every alternative as a new prefix to
 * explore. Each complete schedule is executed exactly once — a
 * schedule re-runs only the prefix that uniquely identifies it (the
 * decisions up to its last non-default pick) and defaults from there.
 *
 * Soundness of the state-digest pruning: a run that inserts digest D
 * at a free choice point continues its full expansion from D (default
 * path executed, every alternative enqueued), so any later run
 * reaching a state with digest D can stop — the subtree is already
 * covered. Digests are consulted only in the free region (at choice
 * depth >= the forced prefix length); consulting them during the
 * forced prefix would abort the very replay that covers the subtree.
 *
 * Invariant oracles: each scenario (check/scenario.hh) runs its
 * checkStep() after every event (no-drop, hot-set capacity) and its
 * checkEnd() once the queue drains (exactly-once / in-order
 * delivery); the per-object checkers (ownership transitions, ring
 * custody) panic inline at the violating call. Violations arrive as
 * PanicException (sim/logging.hh) and carry the full decision
 * schedule, which serializes to a replay file (replay.hh) that
 * re-executes the exact interleaving.
 */

#ifndef UNET_CHECK_EXPLORE_EXPLORE_HH
#define UNET_CHECK_EXPLORE_EXPLORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/scenario.hh"

namespace unet::check::explore {

/** One recorded pick at a choice point. */
struct Decision
{
    std::uint64_t step = 0; ///< events fired before this choice
    sim::Tick when = 0;     ///< simulated time of the choice point
    std::size_t width = 0;  ///< number of eligible candidates
    std::size_t index = 0;  ///< chosen candidate (0 = FIFO default)
    std::uint64_t seq = 0;  ///< schedule seq of the chosen event
};

/** A complete or partial interleaving, as its choice-point picks. */
using Schedule = std::vector<Decision>;

/** Exploration bounds; 0 means unbounded. */
struct Bounds
{
    /** Maximum runs (complete schedules) to execute. */
    std::uint64_t maxRuns = 0;

    /** Per-run event cap — a run exceeding it is reported as a
     *  violation (livelock within the bound). */
    std::uint64_t maxStepsPerRun = 1u << 20;

    /** Choice points beyond this depth stop branching (the run
     *  continues on defaults; skipped alternatives are counted in
     *  Result::deferredBranches). */
    std::size_t maxChoiceDepth = 0;

    /** Maximum branches explored per choice point, default included.
     *  When a point is wider, the explored alternatives are a
     *  deterministic sample: a salted rotation of the alternative
     *  list, so different samplingSalts cover different subsets. */
    std::size_t maxBranchWidth = 0;

    /** Selects which alternatives survive maxBranchWidth sampling. */
    std::uint64_t samplingSalt = 1;
};

struct Options
{
    Bounds bounds;

    /** Prune runs whose state digest was already fully expanded. */
    bool prune = true;

    /** Stop at the first violation (default) or keep exploring.
     *  Note: with pruning on, exploration after a violation is
     *  slightly under-approximate — the aborted run's subtree is
     *  marked covered up to the abort point. */
    bool stopAtFirstViolation = true;

    /** Perturbation salt applied while building the scenario
     *  (ring slot-reuse offsets); 0 = canonical layout. */
    std::uint64_t configSalt = 0;
};

/** A failing interleaving. */
struct Violation
{
    std::string message;
    std::uint64_t runIndex = 0;
    Schedule schedule;
};

struct Result
{
    std::uint64_t runs = 0;          ///< complete schedules executed
    std::uint64_t prunedRuns = 0;    ///< runs cut by the digest set
    std::uint64_t choicePoints = 0;  ///< arbiter invocations
    std::uint64_t deferredBranches = 0; ///< alternatives skipped by bounds
    std::size_t maxEligible = 0;     ///< widest choice point seen
    bool complete = false;           ///< schedule space exhausted
    std::vector<Violation> violations;
};

/** Explore @p scenario's same-tick schedule space. */
Result explore(const ScenarioEntry &scenario, const Options &options = {});

/** Outcome of a single (replayed or salted) run. */
struct RunOutcome
{
    bool violated = false;
    std::string message; ///< panic text when violated
    Schedule schedule;   ///< decisions actually taken
    std::uint64_t steps = 0;
    std::uint64_t digest = 0; ///< end-state digest (determinism checks)
};

/**
 * Re-execute one exact interleaving: every choice point is forced to
 * the recorded pick, verified against the recorded (when, width, seq).
 * Divergence — the run not reproducing the recorded choice points —
 * is itself reported as a violation.
 */
RunOutcome runSchedule(const ScenarioEntry &scenario,
                       const Schedule &schedule,
                       std::uint64_t config_salt = 0,
                       std::uint64_t max_steps = 1u << 20);

/**
 * Run once under the perturbation plane's salted tie-break (no
 * arbiter) — what a regular UNET_PERTURB test run would execute.
 */
RunOutcome runSalted(const ScenarioEntry &scenario, std::uint64_t salt,
                     std::uint64_t max_steps = 1u << 20);

} // namespace unet::check::explore

#endif // UNET_CHECK_EXPLORE_EXPLORE_HH
