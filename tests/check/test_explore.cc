/**
 * @file
 * Tests of the scenario registry and the schedule-space model checker:
 * every entry is findable and holds its oracles under salted runs,
 * exhaustive exploration finds the planted order-dependence bug that a
 * hundred perturbation salts miss, and a serialized counterexample
 * replays bit-for-bit.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>

#include "check/explore/explore.hh"
#include "check/explore/replay.hh"

namespace check = unet::check;
namespace explore = unet::check::explore;

namespace {

const check::ScenarioEntry &
scenario(const char *name)
{
    const check::ScenarioEntry *s = check::findScenario(name);
    if (!s)
        throw std::runtime_error(std::string("unknown scenario ") +
                                 name);
    return *s;
}

// --- the registry ----------------------------------------------------

/** Every entry is named, described, unique, and found by its name. */
TEST(ScenarioRegistry, EntriesAreUniqueAndFindable)
{
    std::set<std::string> names;
    for (const check::ScenarioEntry &entry : check::scenarios()) {
        EXPECT_TRUE(names.insert(entry.name).second) << entry.name;
        EXPECT_EQ(check::findScenario(entry.name), &entry) << entry.name;
        EXPECT_STRNE(entry.description, "") << entry.name;
        EXPECT_NE(entry.make, nullptr) << entry.name;
    }
    EXPECT_GE(names.size(), 11u);
    EXPECT_EQ(check::findScenario("no-such-scenario"), nullptr);
}

/** Salted runs are single paths through the space the explorer
 *  covers: every entry, planted ones included, holds its oracles. */
TEST(ScenarioRegistry, EveryEntryHoldsUnderSaltedRuns)
{
    for (const check::ScenarioEntry &entry : check::scenarios())
        for (std::uint64_t salt = 0; salt <= 2; ++salt) {
            explore::RunOutcome out = explore::runSalted(entry, salt);
            EXPECT_FALSE(out.violated) << entry.name << " salt " << salt
                                       << ": " << out.message;
        }
}

// --- the seeded interleaving bug -------------------------------------

/** Perturbation salts 0..100 — the whole range a CI matrix plausibly
 *  sweeps — all miss the planted credit double-return. */
TEST(ExploreSeededBug, SaltsMissIt)
{
    const check::ScenarioEntry &c = scenario("seeded-credit-bug");
    for (std::uint64_t salt = 0; salt <= 100; ++salt) {
        explore::RunOutcome out = explore::runSalted(c, salt);
        EXPECT_FALSE(out.violated)
            << "salt " << salt << " unexpectedly hit the planted "
            << "bug: " << out.message;
        EXPECT_EQ(out.steps, 6u) << "salt " << salt;
    }
}

/** Exhaustive exploration finds it, with the full 6-event permutation
 *  space enumerated when the search is not stopped early. */
TEST(ExploreSeededBug, ExplorationFindsIt)
{
    const check::ScenarioEntry &c = scenario("seeded-credit-bug");
    explore::Result res = explore::explore(c);
    ASSERT_EQ(res.violations.size(), 1u);
    EXPECT_NE(res.violations[0].message.find("credit underflow"),
              std::string::npos)
        << res.violations[0].message;
    EXPECT_FALSE(res.complete); // stopped at the violation
    EXPECT_EQ(res.maxEligible, 6u);
    EXPECT_FALSE(res.violations[0].schedule.empty());
}

/** With keep-going and no pruning the space is exactly 6! = 720
 *  schedules, of which exactly one is the planted violation. */
TEST(ExploreSeededBug, FullSpaceIs720Schedules)
{
    const check::ScenarioEntry &c = scenario("seeded-credit-bug");
    explore::Options opts;
    opts.prune = false; // every permutation is a distinct end state
    opts.stopAtFirstViolation = false;
    explore::Result res = explore::explore(c, opts);
    EXPECT_EQ(res.runs, 720u);
    EXPECT_EQ(res.prunedRuns, 0u);
    EXPECT_EQ(res.violations.size(), 1u);
    // complete stays false on any violation: a violated run aborts
    // mid-schedule, so in general its suffix subtree was not covered.
    EXPECT_FALSE(res.complete);
}

/** The recorded counterexample re-executes to the same violation. */
TEST(ExploreSeededBug, CounterexampleReplays)
{
    const check::ScenarioEntry &c = scenario("seeded-credit-bug");
    explore::Result res = explore::explore(c);
    ASSERT_EQ(res.violations.size(), 1u);
    const explore::Violation &v = res.violations[0];

    explore::RunOutcome out = explore::runSchedule(c, v.schedule);
    EXPECT_TRUE(out.violated);
    EXPECT_EQ(out.message, v.message);

    // Replay is deterministic: run it twice, get the identical
    // decision trace and end-state digest.
    explore::RunOutcome again = explore::runSchedule(c, v.schedule);
    EXPECT_EQ(again.violated, out.violated);
    EXPECT_EQ(again.message, out.message);
    EXPECT_EQ(again.digest, out.digest);
    ASSERT_EQ(again.schedule.size(), out.schedule.size());
    for (std::size_t i = 0; i < out.schedule.size(); ++i) {
        EXPECT_EQ(again.schedule[i].index, out.schedule[i].index);
        EXPECT_EQ(again.schedule[i].seq, out.schedule[i].seq);
    }
}

// --- replay file round-trip ------------------------------------------

TEST(ExploreReplayFile, RoundTrip)
{
    const check::ScenarioEntry &c = scenario("seeded-credit-bug");
    explore::Result res = explore::explore(c);
    ASSERT_EQ(res.violations.size(), 1u);
    const explore::Violation &v = res.violations[0];

    std::ostringstream os;
    explore::writeReplay(os, c.name, 0, v.message, v.schedule);
    std::istringstream is(os.str());
    auto replay = explore::readReplay(is);
    ASSERT_TRUE(replay.has_value());
    EXPECT_EQ(replay->config, c.name);
    EXPECT_EQ(replay->configSalt, 0u);
    ASSERT_EQ(replay->schedule.size(), v.schedule.size());
    for (std::size_t i = 0; i < v.schedule.size(); ++i) {
        EXPECT_EQ(replay->schedule[i].step, v.schedule[i].step);
        EXPECT_EQ(replay->schedule[i].when, v.schedule[i].when);
        EXPECT_EQ(replay->schedule[i].width, v.schedule[i].width);
        EXPECT_EQ(replay->schedule[i].index, v.schedule[i].index);
        EXPECT_EQ(replay->schedule[i].seq, v.schedule[i].seq);
    }

    // The deserialized schedule still reproduces the violation.
    explore::RunOutcome out =
        explore::runSchedule(c, replay->schedule, replay->configSalt);
    EXPECT_TRUE(out.violated);
    EXPECT_EQ(out.message, v.message);
}

TEST(ExploreReplayFile, RejectsMalformedInput)
{
    std::istringstream bad_magic("not-a-replay\nconfig x\n");
    EXPECT_FALSE(explore::readReplay(bad_magic).has_value());

    std::istringstream no_config(
        "unet-explore-replay v1\ndecisions 0\n");
    EXPECT_FALSE(explore::readReplay(no_config).has_value());

    std::istringstream truncated(
        "unet-explore-replay v1\nconfig fig5\nsalt 0\n"
        "decisions 2\n0 10 2 1 5\n");
    EXPECT_FALSE(explore::readReplay(truncated).has_value());

    std::istringstream unknown_key(
        "unet-explore-replay v1\nconfig fig5\nbogus 1\n"
        "decisions 0\n");
    EXPECT_FALSE(explore::readReplay(unknown_key).has_value());

    // A decision count far beyond the lines that follow is truncated
    // input, not a size to allocate.
    for (const char *count : {"1000000000000", "18446744073709551615"}) {
        std::istringstream huge_count(
            std::string("unet-explore-replay v1\nconfig fig5\n"
                        "decisions ") +
            count + "\n0 10 2 1 5\n");
        EXPECT_FALSE(explore::readReplay(huge_count).has_value())
            << count;
    }
}

/** One random edit of a replay file: a byte flip, an inserted or
 *  deleted byte, a truncation, or a long number in place of a digit. */
void
mutate(std::string &text, std::mt19937_64 &rng)
{
    auto pick = [&](std::size_t n) {
        return n ? static_cast<std::size_t>(rng() % n) : 0;
    };
    static constexpr const char bytes[] = "0123456789 -\nxz";
    const std::size_t at = pick(text.size());
    switch (rng() % 5) {
    case 0:
        if (!text.empty())
            text[at] = static_cast<char>(text[at] ^ (1u << pick(8)));
        break;
    case 1:
        text.insert(at, 1, bytes[pick(sizeof bytes - 1)]);
        break;
    case 2:
        if (!text.empty())
            text.erase(at, 1);
        break;
    case 3:
        text.resize(at);
        break;
    default: {
        const std::size_t digit = text.find_first_of("0123456789", at);
        if (digit != std::string::npos)
            text.insert(digit, std::string(10 + pick(20), '9'));
        break;
    }
    }
}

/** Seeded mutants of the planted bug's replay file: each one either
 *  fails to parse or replays to a clean end or a reported violation
 *  within its step bound; none crashes the parser or the replayer. */
TEST(ExploreReplayFile, MutantsParseOrReplayWithinBounds)
{
    const check::ScenarioEntry &c = scenario("seeded-credit-bug");
    explore::Result res = explore::explore(c);
    ASSERT_EQ(res.violations.size(), 1u);
    std::ostringstream os;
    explore::writeReplay(os, c.name, 0, res.violations[0].message,
                         res.violations[0].schedule);
    const std::string seed = os.str();

    constexpr std::uint64_t maxSteps = 64;
    std::mt19937_64 rng(20);
    std::size_t rejected = 0, unknown = 0, violated = 0;
    for (int n = 0; n < 3000; ++n) {
        std::string text = seed;
        for (std::uint64_t edits = 1 + rng() % 3; edits; --edits)
            mutate(text, rng);
        std::istringstream is(text);
        auto replay = explore::readReplay(is);
        if (!replay) {
            ++rejected;
            continue;
        }
        const check::ScenarioEntry *entry =
            check::findScenario(replay->config);
        if (!entry) {
            ++unknown;
            continue;
        }
        explore::RunOutcome out = explore::runSchedule(
            *entry, replay->schedule, replay->configSalt, maxSteps);
        EXPECT_LE(out.steps, maxSteps) << text;
        violated += out.violated;
    }
    // Each way out is taken, so the loop is not vacuous.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(unknown, 0u);
    EXPECT_GT(violated, 0u);
}

// --- exhaustive scenarios --------------------------------------------

/** Exact exploration statistics of every exhaustive scenario. A refactor
 *  that shifts event order changes these counts even when it shifts
 *  every perturbation salt together, which the salted digest
 *  comparisons cannot see. An intended change updates this table. */
struct Pinned
{
    const char *scenario;
    std::uint64_t runs;
    std::uint64_t prunedRuns;
    std::uint64_t choicePoints;
};

constexpr Pinned kExhaustive[] = {
    {"fig5", 1, 0, 0},
    {"demux", 40, 38, 406},
    {"retransmit", 40, 38, 853},
    {"sendv-race", 7, 5, 21},
    {"atm-cmdqueue", 3, 1, 6},
    {"upcall", 13, 11, 101},
    {"ep-evict", 98, 94, 1268},
    {"serve", 2, 0, 2},
};

/** Explore @p name to completion and compare with its table row. */
explore::Result
expectPinned(const char *name)
{
    const Pinned *pin = nullptr;
    for (const Pinned &p : kExhaustive)
        if (std::string(p.scenario) == name)
            pin = &p;
    if (!pin)
        throw std::runtime_error(std::string("no pinned row for ") +
                                 name);
    explore::Result res = explore::explore(scenario(name));
    EXPECT_TRUE(res.complete) << name;
    EXPECT_TRUE(res.violations.empty()) << name;
    EXPECT_EQ(res.runs, pin->runs) << name;
    EXPECT_EQ(res.prunedRuns, pin->prunedRuns) << name;
    EXPECT_EQ(res.choicePoints, pin->choicePoints) << name;
    return res;
}

/** The Figure 5 ping-pong is schedule-closed: its event chain is
 *  fully serialized, so exploration exhausts in one schedule with no
 *  choice points — the strongest determinism statement the explorer
 *  can make about the latency rig. */
TEST(ExploreConfigs, Fig5Exhausts) { expectPinned("fig5"); }

/** The demux race has real same-tick width (three senders) and still
 *  exhausts under digest pruning, violation-free. */
TEST(ExploreConfigs, DemuxExhausts)
{
    EXPECT_EQ(expectPinned("demux").maxEligible, 3u);
}

/** The batched-submission race — three fibers posting overlapping
 *  sendv trains against the i960's tx polls — exhausts under digest
 *  pruning with no violation: exactly-once and in-order delivery hold
 *  on every schedule, not just the FIFO one. */
TEST(ExploreConfigs, SendvRaceExhausts)
{
    EXPECT_GE(expectPinned("sendv-race").maxEligible, 2u);
}

/** Pruning soundness with the fiber-progress digest token: the
 *  retransmit scenario (timer-driven go-back-N) must still exhaust
 *  violation-free with the pinned amount of pruning. */
TEST(ExploreConfigs, RetransmitExhaustsWithPruning)
{
    expectPinned("retransmit");
}

TEST(ExploreConfigs, AtmCmdQueueExhausts) { expectPinned("atm-cmdqueue"); }

TEST(ExploreConfigs, UpcallExhausts) { expectPinned("upcall"); }

TEST(ExploreConfigs, EpEvictExhausts) { expectPinned("ep-evict"); }

/** The serving cluster exhausts too: the explorer owns ServeRig's event
 *  loop, so a full RPC rig is enumerable like the hand-built ones. */
TEST(ExploreConfigs, ServeExhausts) { expectPinned("serve"); }

/** Salted runs of a violation-free scenario are one path each through
 *  the same space the explorer covers. */
TEST(ExploreConfigs, DemuxSaltedRunsAreClean)
{
    const check::ScenarioEntry &c = scenario("demux");
    for (std::uint64_t salt = 0; salt < 5; ++salt) {
        explore::RunOutcome out = explore::runSalted(c, salt);
        EXPECT_FALSE(out.violated) << "salt " << salt << ": "
                                   << out.message;
    }
}

/** Exploration is itself deterministic: two explorations of the same
 *  scenario report identical statistics. */
TEST(ExploreConfigs, ExplorationIsDeterministic)
{
    explore::Result first = explore::explore(scenario("demux"));
    explore::Result second = explore::explore(scenario("demux"));
    EXPECT_EQ(first.runs, second.runs);
    EXPECT_EQ(first.prunedRuns, second.prunedRuns);
    EXPECT_EQ(first.choicePoints, second.choicePoints);
}

// --- bounds ----------------------------------------------------------

TEST(ExploreBounds, RunBoundStopsEarly)
{
    const check::ScenarioEntry &c = scenario("seeded-credit-bug");
    explore::Options opts;
    opts.prune = false;
    opts.stopAtFirstViolation = false;
    opts.bounds.maxRuns = 10;
    explore::Result res = explore::explore(c, opts);
    EXPECT_EQ(res.runs, 10u);
    EXPECT_FALSE(res.complete);
}

TEST(ExploreBounds, DepthBoundDefersBranches)
{
    const check::ScenarioEntry &c = scenario("seeded-credit-bug");
    explore::Options opts;
    opts.prune = false;
    opts.stopAtFirstViolation = false;
    opts.bounds.maxChoiceDepth = 1;
    explore::Result res = explore::explore(c, opts);
    // Only the first choice point branches: the root run spawns 5
    // alternatives, each exploring defaults from there.
    EXPECT_EQ(res.runs, 6u);
    EXPECT_GT(res.deferredBranches, 0u);
    EXPECT_FALSE(res.complete) << "deferred branches bar completeness";
}

TEST(ExploreBounds, WidthBoundSamplesFrontier)
{
    const check::ScenarioEntry &c = scenario("seeded-credit-bug");
    explore::Options opts;
    opts.prune = false;
    opts.stopAtFirstViolation = false;
    opts.bounds.maxBranchWidth = 2;
    explore::Result res = explore::explore(c, opts);
    EXPECT_GT(res.deferredBranches, 0u);
    EXPECT_FALSE(res.complete);

    // Deterministic sampling: same salt, same subset; different
    // salts may cover different subsets but equal-sized searches.
    explore::Result again = explore::explore(c, opts);
    EXPECT_EQ(res.runs, again.runs);
    EXPECT_EQ(res.deferredBranches, again.deferredBranches);
}

} // namespace
