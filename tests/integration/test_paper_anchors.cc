/**
 * @file
 * End-to-end regression locks on the paper's headline numbers.
 *
 * These tests run the same harnesses as the Fig. 5 / Fig. 6 benches
 * and pin each anchor to the model's own value: the model is
 * deterministic, so any calibration drift fails here instead of
 * hiding inside a tolerance band. Each pin keeps the paper's
 * published value and the model's signed deviation from it beside it
 * (also tabulated in EXPERIMENTS.md).
 */

#include <gtest/gtest.h>

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

TEST(PaperAnchors, Fig5FortyByteRoundTrips)
{
    // "The round-trip time for a 40-byte message over Fast Ethernet
    // ranges from 57 usec (hub) to 91 usec (FN100), while over ATM it
    // is 89 usec."
    // Paper 57 us: -7.965581 us (-14.0%).
    EXPECT_DOUBLE_EQ(roundTripUs(Fabric::FeHub, 40), 49.034419);
    // Paper 91 us: -3.525581 us (-3.9%).
    EXPECT_DOUBLE_EQ(roundTripUs(Fabric::FeFn100, 40), 87.474419);
    // Paper 89 us: -2.243469 us (-2.5%).
    EXPECT_DOUBLE_EQ(roundTripUs(Fabric::AtmOc3, 40), 86.756531);
}

TEST(PaperAnchors, Fig5Ordering)
{
    // hub < Bay 28115 < FN100 at 40 bytes; FE beats ATM at small
    // sizes on the hub.
    double hub = roundTripUs(Fabric::FeHub, 40);
    double bay = roundTripUs(Fabric::FeBay, 40);
    double fn = roundTripUs(Fabric::FeFn100, 40);
    double atm = roundTripUs(Fabric::AtmOc3, 40);
    EXPECT_LT(hub, bay);
    EXPECT_LT(bay, fn);
    EXPECT_LT(hub, atm);
}

TEST(PaperAnchors, Fig5AtmMultiCellCliff)
{
    // "Longer messages (i.e. those that are larger than a single cell)
    // on ATM start at 130 usec for 44 bytes and increase to 351 usec
    // for 1500 bytes."
    double single = roundTripUs(Fabric::AtmOc3, 40);
    double multi = roundTripUs(Fabric::AtmOc3, 44);
    EXPECT_GT(multi - single, 20.0) << "cliff too small";
    // Paper 130 us: -11.635679 us (-9.0%).
    EXPECT_DOUBLE_EQ(multi, 118.364321);
    // Paper 351 us: -0.000065 us (-0.00002%).
    EXPECT_DOUBLE_EQ(roundTripUs(Fabric::AtmOc3, 1494), 350.999935);
}

TEST(PaperAnchors, Fig5Slopes)
{
    // "~25 usec per 100 bytes" (FE) and "~17 usec per 100 bytes" (ATM).
    double fe = (roundTripUs(Fabric::FeHub, 1000) -
                 roundTripUs(Fabric::FeHub, 200)) / 8.0;
    double atm = (roundTripUs(Fabric::AtmOc3, 1000) -
                  roundTripUs(Fabric::AtmOc3, 200)) / 8.0;
    // Paper ~25 us: -0.187143 us (-0.7%).
    EXPECT_DOUBLE_EQ(fe, 24.812856875);
    // Paper ~17 us: -2.016104 us (-11.9%).
    EXPECT_DOUBLE_EQ(atm, 14.983895875000009);
}

TEST(PaperAnchors, Fig6BandwidthCeilings)
{
    // "the bandwidth approaches the peak of about 97 Mbps" (FE) and
    // ATM "reaches 118 Mbps" against the 120 Mbps TAXI ceiling.
    // Paper ~97 Mb/s: +0.139142 Mb/s (+0.14%).
    EXPECT_DOUBLE_EQ(bandwidthMbps(Fabric::FeBay, 1494, 200),
                     97.139141742522767);
    // Paper 118 Mb/s: -1.28125 Mb/s (-1.1%).
    EXPECT_DOUBLE_EQ(bandwidthMbps(Fabric::AtmTaxi, 1494, 200),
                     116.71875);
}

TEST(PaperAnchors, Fig6SmallMessagesFavorFe)
{
    // At 40 bytes the ATM i960 receive path (13 us/message) caps
    // throughput below U-Net/FE's.
    double fe = bandwidthMbps(Fabric::FeBay, 40, 200);
    double atm = bandwidthMbps(Fabric::AtmTaxi, 40, 200);
    EXPECT_GT(fe, atm);
}

TEST(PaperAnchors, Section44Overheads)
{
    // Host processor time of one 40-byte send.
    sim::Simulation s;
    RawPair rig(s, Fabric::AtmOc3);
    sim::Tick busy = -1;
    sim::Process echo(s, "echo", [](sim::Process &) {});
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        sim::Tick before = rig.hostOf(0).cpu().userTime();
        rawSend(rig.unetOf(0), self, rig.ep(0), rig.chan(0), 40,
                16384);
        busy = rig.hostOf(0).cpu().userTime() - before;
    });
    rig.wire(tx, echo);
    tx.start();
    s.run();
    // "about 1.5 usec" on U-Net/ATM: paper 1.5 us, deviation 0.
    EXPECT_DOUBLE_EQ(sim::toMicroseconds(busy), 1.5);
}
