/**
 * @file
 * Digest-stability under schedule perturbation (determinism audit).
 *
 * The determinism claim these tests enforce: a run is a pure function
 * of its seed. UNET_PERTURB salts (sim/perturb.hh) permute same-tick
 * scheduling of permutable events and salt pool/fiber/arena addresses;
 * if the full U-Net stack — NIC service loops, DMA, links, switches,
 * endpoint queues, fault injectors — is free of hidden order and
 * address dependencies, the *simulated* results (every reply-arrival
 * tick, every metric) are bit-identical under every salt. The digest
 * folds all of that into one word and the suites assert equality
 * across >= 5 salts, for the fig5 golden workload and for an armed
 * fault scenario.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "bench/harness.hh"
#include "sim/perturb.hh"

using namespace unet;
using namespace unet::bench;

namespace {

constexpr std::uint64_t kSalts[] = {1, 2, 3, 4, 5};

/**
 * A fig5-style seeded ping/echo run (the golden-trace workload),
 * executed under perturbation salt @p salt, folded into a digest of
 * every reply-arrival tick, the final simulated time, the fired-event
 * count, and the full metrics registry.
 */
std::uint64_t
runDigest(std::uint64_t salt, Fabric fabric, std::size_t size,
          int rounds = 4, const char *fault_scenario = nullptr)
{
    sim::perturb::ScopedSalt scoped(salt);
    sim::Simulation s;
    RawPair rig(s, fabric);
    fault::Plan plan; // after the sim: armed metrics must die first
    if (fault_scenario) {
        plan = fault::Plan::parse(fault_scenario);
        rig.attachFaults(plan);
    }
    return replyArrivals(s, rig, size, rounds).digest;
}

} // namespace

TEST(DeterminismAudit, Fig5GoldenDigestStableAcrossSalts)
{
    for (Fabric f : {Fabric::FeHub, Fabric::FeBay, Fabric::AtmOc3}) {
        const std::uint64_t baseline = runDigest(0, f, 256);
        for (std::uint64_t salt : kSalts)
            EXPECT_EQ(runDigest(salt, f, 256), baseline)
                << fabricName(f) << " diverges under perturbation salt "
                << salt << ": a same-tick order or address dependence "
                << "leaked into simulated results";
    }
}

TEST(DeterminismAudit, Fig5LargeMessageDigestStableAcrossSalts)
{
    for (Fabric f : {Fabric::FeBay, Fabric::AtmOc3}) {
        const std::uint64_t baseline = runDigest(0, f, 1024);
        for (std::uint64_t salt : kSalts)
            EXPECT_EQ(runDigest(salt, f, 1024), baseline)
                << fabricName(f) << " salt " << salt;
    }
}

TEST(DeterminismAudit, FaultScenarioDigestStableAcrossSalts)
{
    // An armed, actively-firing fault plan: drops force the timeout
    // path and the injectors consume their own seeded streams. All of
    // it must still be a pure function of the seed, salt-invariant.
    const char *scenario = "eth.switch.drop=0.2";
    const std::uint64_t baseline =
        runDigest(0, Fabric::FeBay, 256, 6, scenario);
    for (std::uint64_t salt : kSalts)
        EXPECT_EQ(runDigest(salt, Fabric::FeBay, 256, 6, scenario),
                  baseline)
            << "fault-soak scenario diverges under salt " << salt;
}

TEST(DeterminismAudit, BurstLossScenarioDigestStableAcrossSalts)
{
    const char *scenario = "eth.link.*.ge=0.03/0.3/1.0";
    const std::uint64_t baseline =
        runDigest(0, Fabric::FeBay, 128, 6, scenario);
    for (std::uint64_t salt : kSalts)
        EXPECT_EQ(runDigest(salt, Fabric::FeBay, 128, 6, scenario),
                  baseline)
            << "burst-loss scenario diverges under salt " << salt;
}

TEST(DeterminismAudit, DigestDiscriminatesDifferentRuns)
{
    // Sanity on the instrument itself: the digest must actually see
    // the run — different workloads, different digests.
    EXPECT_NE(runDigest(0, Fabric::FeBay, 40),
              runDigest(0, Fabric::FeBay, 1024));
    EXPECT_NE(runDigest(0, Fabric::FeBay, 256),
              runDigest(0, Fabric::AtmOc3, 256));
}
