/**
 * @file
 * Loss-hardened reliability soak: Active Messages driven across seeded
 * fault matrices (drop, Gilbert-Elliott burst, corruption, reordering,
 * duplication). Every scenario must end with exactly-once in-order
 * delivery, terminated drains, and books that reconcile: wire faults
 * vs. retransmissions, corrupted units vs. FCS/CRC drop counters.
 *
 * The soaks themselves are bench/soak.hh's, which soak_reliability
 * runs too; each test requires every check they make to have run and
 * passed. These tests carry the `fault-soak` ctest label, which the
 * tsan preset leaves out.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "bench/soak.hh"

using namespace unet;
using bench::SoakResult;

namespace {

struct Scenario
{
    const char *name;
    const char *spec; ///< Plan::parse scenario string
};

constexpr Scenario feScenarios[] = {
    {"drop", "eth.link.*.drop=0.15"},
    {"burst", "eth.link.*.ge=0.02/0.25/1.0"},
    {"corrupt", "eth.link.*.corrupt=0.08"},
    {"reorder",
     "eth.link.*.reorder=0.25 eth.link.*.reorder_delay_us=200 "
     "eth.link.*.jitter_us=20"},
    {"mixed",
     "eth.link.*.drop=0.08 eth.link.*.corrupt=0.04 "
     "eth.link.*.dup=0.1 eth.link.*.reorder=0.1 "
     "eth.link.*.reorder_delay_us=150"},
};

using Checks = std::vector<std::string>;

} // namespace

class FaultSoak
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(FaultSoak, BidirectionalAmSurvivesScenario)
{
    auto [scenario_index, seed] = GetParam();
    const Scenario &sc = feScenarios[scenario_index];

    SoakResult r = bench::feSoak(seed, sc.spec, 40);
    EXPECT_EQ(r.armed, 2u) << sc.name;
    // Exactly-once, in-order, intact delivery from both sides, drains
    // that terminate, and books that reconcile: wire faults against
    // retransmissions, corrupted frames against the FCS drop count.
    EXPECT_EQ(r.checked,
              (Checks{"every request posted",
                      "every request arrived in time",
                      "exactly-once delivery", "in-order delivery",
                      "payload intact past the checksums",
                      "drain() terminated", "no channel died",
                      "wire faults repaired by retransmission",
                      "rxBadFrame reconciles with fault.corrupted"}));
    EXPECT_EQ(r.failed, Checks{}) << sc.name << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, FaultSoak,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto &info) {
        return std::string(feScenarios[std::get<0>(info.param)].name) +
            "_seed" + std::to_string(std::get<1>(info.param));
    });

class FaultSoakAtm : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FaultSoakAtm, BulkStoreSurvivesBurstLossAndCorruption)
{
    std::uint64_t seed = GetParam();
    SoakResult r = bench::atmSoak(
        seed, "atm.link.a.*.ge=0.01/0.3/1.0 atm.link.b.*.corrupt=0.01 "
              "atm.switch.drop=0.005");
    // The store lands byte-exact with one done upcall, and the books
    // reconcile: AAL5 drops a PDU only for a destroyed cell.
    EXPECT_EQ(r.checked,
              (Checks{"store posted", "done handler fired exactly once",
                      "bulk payload byte-exact", "drain() terminated",
                      "no channel died",
                      "corrupted cells caught by the CRC",
                      "no more CRC drops than destroyed cells",
                      "wire faults repaired by retransmission"}));
    EXPECT_EQ(r.failed, Checks{}) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSoakAtm,
                         ::testing::Values(1u, 2u, 3u));
