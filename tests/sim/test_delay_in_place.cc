/**
 * @file
 * The in-place delay fast path (EventQueue::run() and Process::delay()).
 *
 * A delay whose wake would be the next event to fire advances the
 * clock in place instead of queueing the wake and switching fibers.
 * These tests pin that it is exact: every observable the slow path
 * produces (clock, fired count, fiber progress, suspension digest,
 * metrics) comes out the same, and the fast path stays off wherever
 * events must be seen one at a time.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/scenario.hh"
#include "obs/digest.hh"
#include "sim/perturb.hh"
#include "sim/process.hh"

using namespace unet;
using namespace unet::sim;
using namespace unet::sim::literals;

namespace {

/** A lone fiber that sleeps @p rounds times, 10 us each. */
std::unique_ptr<Process>
sleeper(Simulation &sim, int rounds, std::vector<Tick> *stamps = nullptr)
{
    auto p = std::make_unique<Process>(
        sim, "sleeper", [&sim, rounds, stamps](Process &self) {
            for (int i = 0; i < rounds; ++i) {
                if (stamps)
                    stamps->push_back(sim.now());
                self.delay(10_us);
            }
        });
    p->start();
    return p;
}

class NullObserver : public TaskObserver
{
  public:
    void onEventScheduled(std::uint64_t, Tick, Order) override {}
    void onEventFireBegin(std::uint64_t, Tick, Order) override {}
    void onEventFireEnd(std::uint64_t) override {}
    void onEventCancelled(std::uint64_t) override {}
    void onFiberResume(Process &) override {}
    void onFiberSuspend(Process &) override {}
};

class FifoArbiter : public ScheduleArbiter
{
  public:
    std::size_t
    pick(Tick, const std::vector<Candidate> &) override
    {
        return 0;
    }
};

} // namespace

TEST(DelayInPlace, LoneFiberMatchesSteppedRun)
{
    Simulation fast;
    auto a = sleeper(fast, 50);
    fast.run();

    Simulation stepped;
    auto b = sleeper(stepped, 50);
    while (stepped.events().step()) {
    }

    ASSERT_TRUE(a->finished());
    ASSERT_TRUE(b->finished());
    // Nothing else is pending, so every wake is the next event.
    EXPECT_EQ(fast.events().inPlaceAdvances(), 50u);
    EXPECT_EQ(stepped.events().inPlaceAdvances(), 0u);
    EXPECT_EQ(fast.now(), 500_us);
    EXPECT_EQ(fast.now(), stepped.now());
    EXPECT_EQ(fast.events().firedCount(), 51u); // start + 50 wakes
    EXPECT_EQ(fast.events().firedCount(), stepped.events().firedCount());
    EXPECT_EQ(fast.fiberProgress(), stepped.fiberProgress());
    EXPECT_EQ(fast.suspensionDigest(), stepped.suspensionDigest());
}

TEST(DelayInPlace, EventAtWakeTickFiresFirst)
{
    Simulation sim;
    // Pins the FIFO order of the wake behind an earlier-scheduled
    // event at the same tick; a salt may reorder the two.
    sim.events().setPerturbSalt(0);
    std::vector<int> order;
    sim.schedule(10_us, [&] { order.push_back(1); });
    Process p(sim, "p", [&](Process &self) {
        self.delay(10_us);
        order.push_back(2);
    });
    p.start();
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(sim.events().inPlaceAdvances(), 0u);
    EXPECT_EQ(sim.now(), 10_us);
}

TEST(DelayInPlace, RunUntilNeverPassesItsLimit)
{
    Simulation sim;
    std::vector<Tick> stamps;
    auto p = sleeper(sim, 5, &stamps);

    sim.runUntil(25_us);
    EXPECT_EQ(stamps, (std::vector<Tick>{0, 10_us, 20_us}));
    EXPECT_EQ(sim.now(), 25_us);
    EXPECT_FALSE(p->finished());
    EXPECT_EQ(sim.events().pendingCount(), 1u); // the wake at 30 us
    EXPECT_EQ(sim.events().inPlaceAdvances(), 2u);

    // A wake at exactly the limit advances in place, as an event at
    // the limit would fire.
    sim.runUntil(40_us);
    EXPECT_EQ(stamps, (std::vector<Tick>{0, 10_us, 20_us, 30_us, 40_us}));
    EXPECT_EQ(sim.events().inPlaceAdvances(), 3u);

    sim.run();
    EXPECT_TRUE(p->finished());
    EXPECT_EQ(sim.now(), 50_us);
    EXPECT_EQ(sim.events().firedCount(), 6u); // start + 5 wakes
    EXPECT_EQ(sim.events().inPlaceAdvances(), 3u); // 10, 20 and 40 us
}

TEST(DelayInPlace, OffWhenSteppingObservedOrArbitrated)
{
    {
        Simulation sim;
        auto p = sleeper(sim, 5);
        while (sim.events().step()) {
        }
        EXPECT_TRUE(p->finished());
        EXPECT_EQ(sim.events().inPlaceAdvances(), 0u);
    }
    {
        Simulation sim;
        NullObserver observer;
        sim.events().setTaskObserver(&observer);
        auto p = sleeper(sim, 5);
        sim.run();
        EXPECT_TRUE(p->finished());
        EXPECT_EQ(sim.events().inPlaceAdvances(), 0u);
        sim.events().setTaskObserver(nullptr);
    }
    {
        Simulation sim;
        FifoArbiter arbiter;
        sim.events().setArbiter(&arbiter);
        auto p = sleeper(sim, 5);
        sim.run();
        EXPECT_TRUE(p->finished());
        EXPECT_EQ(sim.events().inPlaceAdvances(), 0u);
    }
}

namespace {

/** What a run leaves behind that the fast path must not move. */
struct EndState
{
    Tick now;
    std::uint64_t fired;
    std::uint64_t progress;
    std::uint64_t suspension;
    std::uint64_t metrics;
    std::uint64_t inPlace;
};

EndState
runScenario(const check::ScenarioEntry &entry, std::uint64_t salt,
            bool stepped)
{
    perturb::ScopedSalt scoped(salt);
    std::unique_ptr<check::Scenario> rig = entry.make();
    Simulation &sim = rig->simulation();
    if (stepped) {
        while (sim.events().step()) {
        }
    } else {
        sim.run();
    }
    return {sim.now(),
            sim.events().firedCount(),
            sim.fiberProgress(),
            sim.suspensionDigest(),
            obs::digestOf(sim.metrics()),
            sim.events().inPlaceAdvances()};
}

} // namespace

/** Every registered scenario, at salts 0..2: run() with the fast path
 *  ends in the same state as a step() loop without it. */
TEST(DelayInPlace, ScenarioRegistryMatchesSteppedRuns)
{
    std::uint64_t advanced = 0;
    for (const check::ScenarioEntry &entry : check::scenarios()) {
        for (std::uint64_t salt = 0; salt <= 2; ++salt) {
            EndState fast = runScenario(entry, salt, false);
            EndState slow = runScenario(entry, salt, true);
            SCOPED_TRACE(testing::Message()
                         << entry.name << ", salt " << salt);
            EXPECT_EQ(fast.now, slow.now);
            EXPECT_EQ(fast.fired, slow.fired);
            EXPECT_EQ(fast.progress, slow.progress);
            EXPECT_EQ(fast.suspension, slow.suspension);
            EXPECT_EQ(fast.metrics, slow.metrics);
            EXPECT_EQ(slow.inPlace, 0u);
            advanced += fast.inPlace;
        }
    }
    // The comparison means something only if the fast path ran.
    EXPECT_GT(advanced, 0u);
}
