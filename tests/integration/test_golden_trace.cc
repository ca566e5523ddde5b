/**
 * @file
 * Event-trace determinism and golden-timing tests.
 *
 * The event core was rewritten from per-event heap allocations to a
 * pooled slab with batched deliveries; the refactor's contract is that
 * *simulated* results are bit-identical (same-tick FIFO order
 * preserved). These tests pin that contract: a seeded fig5-style run
 * must reproduce the exact same per-round arrival ticks run-over-run,
 * and against the golden trace recorded from the pre-pooling
 * implementation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

namespace {

/**
 * The tick of every reply arrival of a seeded fig5-style ping/echo run
 * (bench::replyArrivals) — an event trace of the full stack (NIC
 * service loops, DMA, links).
 *
 * When @p fault_scenario is non-null, the parsed fault::Plan is armed
 * on every rig component (an empty scenario exercises the plane's
 * zero-cost idle path).
 */
std::vector<sim::Tick>
replyArrivalTrace(Fabric fabric, std::size_t size, int rounds = 4,
                  const char *fault_scenario = nullptr)
{
    sim::Simulation s;
    RawPair rig(s, fabric);
    fault::Plan plan; // after the sim: armed metrics must die first
    if (fault_scenario) {
        plan = fault::Plan::parse(fault_scenario);
        rig.attachFaults(plan);
    }
    return replyArrivals(s, rig, size, rounds).arrivals;
}

} // namespace

TEST(GoldenTrace, SeededRunIsReproducible)
{
    for (Fabric f : {Fabric::FeHub, Fabric::FeBay, Fabric::AtmOc3}) {
        auto a = replyArrivalTrace(f, 256);
        auto b = replyArrivalTrace(f, 256);
        EXPECT_EQ(a, b) << fabricName(f);
    }
}

TEST(GoldenTrace, MatchesPrePoolingImplementation)
{
    // Reply-arrival ticks recorded from the original
    // shared_ptr/std::function event queue, before the pooled slab,
    // payload rings, and cell-train batching. The rewrite must not
    // move a single event: any same-tick ordering change shows up
    // here as a shifted tick.
    using T = std::vector<sim::Tick>;
    EXPECT_EQ(replyArrivalTrace(Fabric::FeBay, 40),
              (T{60670132, 115140264, 169610396, 224080528}));
    EXPECT_EQ(replyArrivalTrace(Fabric::FeBay, 1024),
              (T{265658052, 525266104, 784874156, 1044482208}));
    EXPECT_EQ(replyArrivalTrace(Fabric::AtmOc3, 40),
              (T{101792244, 184584488, 267376732, 350168976}));
    EXPECT_EQ(replyArrivalTrace(Fabric::AtmOc3, 1024),
              (T{239346790, 460193580, 681040370, 901887160}));
}

TEST(GoldenTrace, EmptyFaultPlanIsInvisible)
{
    // Attaching a fault plan with no active models must leave every
    // site on its null-injector path: the golden ticks cannot move.
    // An armed-but-harmless plan (a model that never fires) may draw
    // from its own RNG but still must not perturb the simulation.
    using T = std::vector<sim::Tick>;
    EXPECT_EQ(replyArrivalTrace(Fabric::FeBay, 40, 4, ""),
              (T{60670132, 115140264, 169610396, 224080528}));
    EXPECT_EQ(replyArrivalTrace(Fabric::AtmOc3, 40, 4, ""),
              (T{101792244, 184584488, 267376732, 350168976}));
    EXPECT_EQ(replyArrivalTrace(Fabric::FeBay, 1024, 4,
                                "eth.switch.drop=0.0"),
              (T{265658052, 525266104, 784874156, 1044482208}));
    EXPECT_EQ(replyArrivalTrace(Fabric::AtmOc3, 1024, 4,
                                "atm.*.drop_every=1000000"),
              (T{239346790, 460193580, 681040370, 901887160}));
}
