/**
 * @file
 * The exploration driver: DFS over decision prefixes.
 *
 * Every run executes one complete schedule. A schedule is identified
 * by its decision prefix up to the last non-default pick; the run for
 * that prefix forces it, then follows FIFO defaults, enqueueing each
 * untaken alternative as a new prefix. The root run is the empty
 * prefix (pure FIFO). This visits each schedule exactly once without
 * keeping any per-schedule state beyond the work queue.
 */

#include "check/explore/explore.hh"

#include <algorithm>
#include <deque>
#include <set>

#include "check/ownership.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/perturb.hh"

namespace unet::check::explore {

namespace {

/** Thrown out of pick() to abandon a run whose state digest was
 *  already fully expanded. It propagates through stepChoice() before
 *  any event fires, so the queue is still consistent when caught. */
struct PruneSignal
{};

/** Digest of everything that distinguishes two exploration states.
 *  Sequence numbers are excluded (schedule history); anything that is
 *  pure history may only be *added* at the cost of weaker pruning,
 *  never removed if it affects the future. */
std::uint64_t
stateDigest(Scenario &inst)
{
    obs::Digest d;
    sim::Simulation &sim = inst.simulation();
    sim::EventQueue &q = sim.events();
    d.mix(static_cast<std::uint64_t>(q.now()));
    d.mix(q.firedCount());
    // Fiber progress: distinguishes states whose queues and metrics
    // agree but whose process bodies sit at different resume points
    // (pure history in the digest sense — adding it only weakens
    // pruning, which is always sound).
    d.mix(sim.fiberProgress());
    // Suspension points: *why* each parked fiber is parked. A fiber
    // sleeping in delay() and one blocked in waitOn() with a timeout
    // can leave identical queues, resume counts, and metrics, yet a
    // future notifyAll() wakes only the latter — states that conflate
    // them would over-prune (ROADMAP item closed in PR 10).
    d.mix(sim.suspensionDigest());
    for (const auto &[dt, order] : q.pendingProfile()) {
        d.mix(static_cast<std::uint64_t>(dt));
        d.mix(static_cast<std::uint64_t>(order));
    }
    d.mix(obs::digestOf(sim.metrics()));

    // Enrolled ownership trackers, combined commutatively: enrollment
    // order reflects construction history, which two equal states may
    // not share.
    std::uint64_t sum = 0;
    std::uint64_t x = 0;
    OwnershipTracker::forEachEnrolled([&](const OwnershipTracker &t) {
        std::uint64_t h = t.stateHash();
        sum += h;
        x ^= h;
    });
    d.mix(sum).mix(x);

    inst.mixState(d);
    return d.value();
}

/** Arbiter for one run: forces the prefix, then defaults + branches. */
class RunController : public sim::ScheduleArbiter
{
  public:
    RunController(const Schedule &prefix, const Options &opts,
                  Scenario &inst,
                  std::set<std::uint64_t> &visited, bool branching)
        : prefix(prefix), opts(opts), inst(inst), visited(visited),
          branching(branching)
    {}

    std::size_t
    pick(sim::Tick now,
         const std::vector<Candidate> &candidates) override
    {
        ++choicePoints;
        maxEligible = std::max(maxEligible, candidates.size());
        const std::size_t depth = decisions.size();
        const std::size_t width = candidates.size();
        std::size_t chosen = 0;

        if (depth < prefix.size()) {
            const Decision &want = prefix[depth];
            if (want.width != width || want.when != now ||
                want.index >= width ||
                candidates[want.index].seq != want.seq)
                UNET_PANIC("schedule divergence at choice ", depth,
                           ": recorded (when=", want.when,
                           " width=", want.width,
                           " index=", want.index, " seq=", want.seq,
                           "); live (when=", now, " width=", width,
                           ")");
            chosen = want.index;
        } else if (!branching) {
            UNET_PANIC("replay schedule exhausted: unrecorded choice "
                       "point at t=", now, " (width ", width, ")");
        } else {
            // Free region: prune repeated states, branch the rest.
            if (opts.prune &&
                !visited.insert(stateDigest(inst)).second)
                throw PruneSignal{};
            enqueueAlternatives(now, candidates);
        }

        decisions.push_back(
            Decision{inst.simulation().events().firedCount(), now,
                     width, chosen, candidates[chosen].seq});
        return chosen;
    }

    const Schedule &prefix;
    const Options &opts;
    Scenario &inst;
    std::set<std::uint64_t> &visited;
    bool branching;

    Schedule decisions;
    std::vector<Schedule> alternatives;
    std::uint64_t choicePoints = 0;
    std::uint64_t deferred = 0;
    std::size_t maxEligible = 0;

  private:
    void
    enqueueAlternatives(sim::Tick now,
                        const std::vector<Candidate> &candidates)
    {
        const std::size_t width = candidates.size();
        const std::size_t alts = width - 1;
        if (opts.bounds.maxChoiceDepth &&
            decisions.size() >= opts.bounds.maxChoiceDepth) {
            deferred += alts;
            return;
        }
        std::size_t take = alts;
        if (opts.bounds.maxBranchWidth)
            take = std::min(alts, opts.bounds.maxBranchWidth - 1);
        deferred += alts - take;

        // Deterministic frontier sampling: when bounded, keep a
        // salted rotation of the alternative list so different
        // sampling salts cover different subsets of the frontier.
        std::size_t start = 0;
        if (take < alts)
            start = static_cast<std::size_t>(
                sim::perturb::mix(opts.bounds.samplingSalt,
                                  ++sampleCounter) %
                alts);

        std::uint64_t step =
            inst.simulation().events().firedCount();
        for (std::size_t k = 0; k < take; ++k) {
            std::size_t idx = 1 + (start + k) % alts;
            Schedule alt = decisions;
            alt.push_back(Decision{step, now, width, idx,
                                   candidates[idx].seq});
            alternatives.push_back(std::move(alt));
        }
    }

    std::uint64_t sampleCounter = 0;
};

enum class RunKind { normal, pruned, violated };

struct RunResult
{
    RunKind kind = RunKind::normal;
    std::string message;
};

/** Drive one run to completion under @p arbiter (nullable: salted
 *  tie-break), evaluating the oracles after every event. */
RunResult
executeRun(Scenario &inst, sim::ScheduleArbiter *arbiter,
           std::uint64_t max_steps, std::uint64_t &steps_out)
{
    sim::EventQueue &q = inst.simulation().events();
    q.setArbiter(arbiter);
    RunResult rr;
    std::uint64_t steps = 0;
    try {
        while (q.step()) {
            ++steps;
            inst.checkStep();
            if (max_steps && steps >= max_steps && !q.empty())
                UNET_PANIC("run exceeded the ", max_steps,
                           "-event step bound (livelock?)");
        }
        inst.checkEnd();
    } catch (const PruneSignal &) {
        rr.kind = RunKind::pruned;
    } catch (const sim::PanicException &e) {
        rr.kind = RunKind::violated;
        rr.message = e.what();
    }
    q.setArbiter(nullptr);
    steps_out = steps;
    return rr;
}

std::unique_ptr<Scenario>
build(const ScenarioEntry &scenario, std::uint64_t config_salt)
{
    sim::perturb::ScopedSalt salt(config_salt);
    return scenario.make();
}

} // namespace

Result
explore(const ScenarioEntry &scenario, const Options &options)
{
    Result res;
    sim::ScopedPanicThrows throws_on;
    std::deque<Schedule> work;
    work.push_back({});
    std::set<std::uint64_t> visited;
    bool hit_run_bound = false;

    while (!work.empty()) {
        if (options.bounds.maxRuns &&
            res.runs >= options.bounds.maxRuns) {
            hit_run_bound = true;
            break;
        }
        Schedule prefix = std::move(work.front());
        work.pop_front();

        auto inst = build(scenario, options.configSalt);
        RunController ctl(prefix, options, *inst, visited,
                          /*branching=*/true);
        std::uint64_t run_index = res.runs++;
        std::uint64_t steps = 0;
        RunResult rr = executeRun(*inst, &ctl,
                                  options.bounds.maxStepsPerRun,
                                  steps);

        // Alternatives found before a prune/violation abort are
        // still valid prefixes; merge in every outcome.
        res.choicePoints += ctl.choicePoints;
        res.deferredBranches += ctl.deferred;
        res.maxEligible = std::max(res.maxEligible, ctl.maxEligible);
        for (Schedule &alt : ctl.alternatives)
            work.push_back(std::move(alt));

        if (rr.kind == RunKind::pruned) {
            ++res.prunedRuns;
        } else if (rr.kind == RunKind::violated) {
            res.violations.push_back(Violation{
                std::move(rr.message), run_index, ctl.decisions});
            if (options.stopAtFirstViolation)
                return res; // complete stays false
        }
    }

    res.complete = !hit_run_bound && work.empty() &&
                   res.deferredBranches == 0 && res.violations.empty();
    return res;
}

RunOutcome
runSchedule(const ScenarioEntry &scenario, const Schedule &schedule,
            std::uint64_t config_salt, std::uint64_t max_steps)
{
    sim::ScopedPanicThrows throws_on;
    Options options;
    options.prune = false;

    auto inst = build(scenario, config_salt);
    std::set<std::uint64_t> visited;
    RunController ctl(schedule, options, *inst, visited,
                      /*branching=*/false);
    RunOutcome out;
    RunResult rr = executeRun(*inst, &ctl, max_steps, out.steps);
    out.violated = rr.kind == RunKind::violated;
    out.message = std::move(rr.message);
    out.schedule = std::move(ctl.decisions);
    out.digest = stateDigest(*inst);
    return out;
}

RunOutcome
runSalted(const ScenarioEntry &scenario, std::uint64_t salt,
          std::uint64_t max_steps)
{
    sim::ScopedPanicThrows throws_on;
    auto inst = build(scenario, salt);
    RunOutcome out;
    RunResult rr = executeRun(*inst, nullptr, max_steps, out.steps);
    out.violated = rr.kind == RunKind::violated;
    out.message = std::move(rr.message);
    out.digest = stateDigest(*inst);
    return out;
}

} // namespace unet::check::explore
