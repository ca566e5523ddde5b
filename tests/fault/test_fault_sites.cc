/**
 * @file
 * Integration tests for the fault sites: each custody boundary must
 * honor its injector, account every fault, and hand the damage to the
 * existing defenses (Ethernet FCS, AAL5 CRC, AM retransmission).
 */

#include <gtest/gtest.h>

#include <memory>

#include "am/active_messages.hh"
#include "eth/hub.hh"
#include "eth/switch.hh"
#include "fault/attach.hh"
#include "fault/fault.hh"
#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::am;
using namespace unet::test;

namespace {

/** Post @p n 2 KB receive buffers. */
void
postBuffers(UNet &un, sim::Process &proc, Endpoint &ep, int n = 8)
{
    for (int i = 0; i < n; ++i)
        un.postFree(proc, ep,
                    {static_cast<std::uint32_t>(i * 2048), 2048});
}

/**
 * Raw one-way rig over any eth::Network: A fires @p sends messages at
 * B; returns how many B received. The caller arms injectors between
 * construction and run (via @p arm, called before processes start).
 */
struct RawFeRig
{
    RawFeRig(sim::Simulation &s, eth::Network &net)
        : a(s, net, 0), b(s, net, 1)
    {}

    int
    run(sim::Simulation &s, int sends)
    {
        int got = 0;
        sim::Process rx(s, "rx", [&](sim::Process &proc) {
            postBuffers(b.unet, proc, *epB);
            RecvDescriptor rd;
            while (epB->wait(proc, rd, sim::milliseconds(2)))
                ++got;
        });
        // Buffer-area sends (the only U-Net/FE TX path) rotating the
        // TX slot: the zero-copy contract forbids re-posting an
        // in-flight region.
        sim::Process tx(s, "tx", [&](sim::Process &proc) {
            for (int i = 0; i < sends; ++i) {
                std::uint32_t off =
                    16384 + static_cast<std::uint32_t>(i % 8) * 2048;
                ASSERT_TRUE(a.unet.send(proc, *epA,
                                        fragmentSend(chanA, {off, 256})));
                a.unet.flush(proc, *epA);
            }
        });
        epA = &a.unet.createEndpoint(&tx, {});
        epB = &b.unet.createEndpoint(&rx, {});
        UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);
        rx.start();
        tx.start(sim::microseconds(5));
        s.run();
        return got;
    }

    FeNode a, b;
    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
};

} // namespace

TEST(FaultSites, EthLinkDropForcesRetransmitAndRecovers)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    fault::ModelSpec m;
    m.dropUnits = {0, 3};
    fault::Injector inj(s, "eth.link.0", m, 1);
    link.setFaultInjector(&inj, 0);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    const int total = 6;
    int got = 0, next = 0;
    bool in_order = true;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setHandler(1, [&](sim::Process &, Token, const Args &args,
                               std::span<const std::uint8_t>) {
            if (static_cast<int>(args[0]) != next)
                in_order = false;
            ++next;
            ++got;
        });
        amB->pollUntil(proc, [&] { return got >= total; },
                       sim::seconds(10));
        amB->pollUntil(proc, [] { return false; },
                       sim::milliseconds(5));
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        for (int i = 0; i < total; ++i)
            ASSERT_TRUE(amA->request(proc, chanA, 1,
                                     {static_cast<Word>(i), 0, 0, 0}));
        EXPECT_TRUE(amA->drain(proc, sim::seconds(10)));
    });

    epA = &a.unet.createEndpoint(&procA, {});
    epB = &b.unet.createEndpoint(&procB, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);
    amA = std::make_unique<ActiveMessages>(a.unet, *epA);
    amB = std::make_unique<ActiveMessages>(b.unet, *epB);
    amA->openChannel(chanA);
    amB->openChannel(chanB);
    procA.start();
    procB.start();
    s.run();

    EXPECT_EQ(got, total);
    EXPECT_TRUE(in_order);
    EXPECT_EQ(inj.dropped(), 2u);
    // Every wire drop must be repaired by the reliability layer.
    EXPECT_GE(amA->retransmits(), 1u);
    EXPECT_EQ(amA->deadChannels(), 0u);
}

TEST(FaultSites, EthCorruptionIsCaughtByFcsAndCounted)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    RawFeRig rig(s, link);

    fault::ModelSpec m;
    m.corrupt = 1.0;
    fault::Injector inj(s, "eth.link.0", m, 4);
    link.setFaultInjector(&inj, 0);

    int got = rig.run(s, 3);

    // Every frame had one wire bit flipped after the FCS was computed;
    // the receiving kernel's FCS check must reject all of them, and the
    // books must reconcile exactly.
    EXPECT_EQ(got, 0);
    EXPECT_EQ(inj.units(), 3u);
    EXPECT_EQ(inj.corrupted(), 3u);
    EXPECT_EQ(rig.b.unet.rxBadFrame(), inj.corrupted());
}

TEST(FaultSites, EthLinkDuplicateDeliversACleanSecondCopy)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    RawFeRig rig(s, link);

    fault::ModelSpec m;
    m.duplicate = 1.0;
    fault::Injector inj(s, "eth.link.0", m, 4);
    link.setFaultInjector(&inj, 0);

    // Raw U-Net has no sequence numbers: both copies surface.
    int got = rig.run(s, 2);
    EXPECT_EQ(got, 4);
    EXPECT_EQ(inj.duplicated(), 2u);
    EXPECT_EQ(rig.b.unet.rxBadFrame(), 0u);
}

TEST(FaultSites, EthLinkDelayStillDelivers)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    RawFeRig rig(s, link);

    fault::ModelSpec m;
    m.reorder = 1.0;
    m.reorderDelay = sim::microseconds(300);
    fault::Injector inj(s, "eth.link.0", m, 4);
    link.setFaultInjector(&inj, 0);

    int got = rig.run(s, 3);
    EXPECT_EQ(got, 3);
    EXPECT_EQ(inj.delayed(), 3u);
}

TEST(FaultSites, HubDropsTheBroadcastForAllReceivers)
{
    sim::Simulation s;
    eth::Hub hub(s);
    RawFeRig rig(s, hub);

    fault::Plan plan = fault::Plan::parse("eth.hub.drop_every=2");
    fault::attach(plan, s, hub);

    int got = rig.run(s, 4); // units 1 and 3 die in the hub
    EXPECT_EQ(got, 2);
    ASSERT_EQ(plan.armed().size(), 1u);
    EXPECT_EQ(plan.armed()[0]->dropped(), 2u);
}

TEST(FaultSites, SwitchDropsAtEgress)
{
    sim::Simulation s;
    eth::Switch sw(s, eth::SwitchSpec::bay28115());
    RawFeRig rig(s, sw);

    fault::Plan plan = fault::Plan::parse("eth.switch.drop_every=2");
    fault::attach(plan, s, sw);

    int got = rig.run(s, 4);
    EXPECT_EQ(got, 2);
    ASSERT_EQ(plan.armed().size(), 1u);
    EXPECT_EQ(plan.armed()[0]->dropped(), 2u);
}

TEST(FaultSites, NicFeRxDropLosesTheFrameBeforeDma)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    RawFeRig rig(s, link);

    fault::Plan plan;
    plan.model("nic.fe.rx.b").dropEvery = 2;
    fault::attach(plan, s, rig.b.nic, ".b");

    int got = rig.run(s, 4);
    EXPECT_EQ(got, 2);
    ASSERT_EQ(plan.armed().size(), 1u);
    EXPECT_EQ(plan.armed()[0]->dropped(), 2u);
    // Dropped pre-DMA: the kernel never saw a bad frame.
    EXPECT_EQ(rig.b.unet.rxBadFrame(), 0u);
}

namespace {

/** One-way inline (single-cell) sends across an ATM star. */
int
atmOneWay(sim::Simulation &s, AtmStar &star, int sends,
          const std::function<void()> &arm)
{
    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    int got = 0;

    sim::Process rx(s, "rx", [&](sim::Process &proc) {
        postBuffers(star[1].unet, proc, *epB);
        RecvDescriptor rd;
        while (epB->wait(proc, rd, sim::milliseconds(2)))
            ++got;
    });
    sim::Process tx(s, "tx", [&](sim::Process &proc) {
        auto payload = pattern(32);
        for (int i = 0; i < sends; ++i) {
            SendDescriptor sd = inlineSend(chanA, payload);
            ASSERT_TRUE(star[0].unet.send(proc, *epA, sd));
            star[0].unet.flush(proc, *epA);
        }
    });
    epA = &star[0].unet.createEndpoint(&tx, {});
    epB = &star[1].unet.createEndpoint(&rx, {});
    star.connect(0, *epA, 1, *epB, chanA, chanB);
    arm();
    rx.start();
    tx.start(sim::microseconds(5));
    s.run();
    return got;
}

} // namespace

TEST(FaultSites, AtmCellCorruptionIsCaughtByAal5Crc)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    fault::ModelSpec m;
    m.corrupt = 1.0;
    fault::Injector inj(s, "atm.link.a.0", m, 2);

    int got = atmOneWay(s, star, 3, [&] {
        star[0].link.setFaultInjector(&inj, 0);
    });

    // A real payload bit was flipped in every cell; AAL5 CRC-32 at
    // reassembly must reject each PDU and count it.
    EXPECT_EQ(got, 0);
    EXPECT_EQ(inj.corrupted(), 3u);
    EXPECT_EQ(star[1].nic.crcDrops(), inj.corrupted());
}

TEST(FaultSites, AtmLinkDropLosesTheCell)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    fault::ModelSpec m;
    m.dropEvery = 2;
    fault::Injector inj(s, "atm.link.a.0", m, 2);

    int got = atmOneWay(s, star, 4, [&] {
        star[0].link.setFaultInjector(&inj, 0);
    });
    EXPECT_EQ(got, 2);
    EXPECT_EQ(inj.dropped(), 2u);
}

TEST(FaultSites, AtmSwitchDropLosesTheCell)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    fault::Plan plan = fault::Plan::parse("atm.switch.drop_every=2");

    int got = atmOneWay(s, star, 4, [&] {
        fault::attach(plan, s, star.atmSwitch());
    });
    EXPECT_EQ(got, 2);
    ASSERT_EQ(plan.armed().size(), 1u);
    EXPECT_EQ(plan.armed()[0]->dropped(), 2u);
}

TEST(FaultSites, NicAtmRxCorruptionHitsTheCrc)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    fault::Plan plan;
    plan.model("nic.atm.rx.b").corrupt = 1.0;

    int got = atmOneWay(s, star, 2, [&] {
        fault::attach(plan, s, star[1].nic, ".b");
    });
    EXPECT_EQ(got, 0);
    ASSERT_EQ(plan.armed().size(), 1u);
    EXPECT_EQ(plan.armed()[0]->corrupted(), 2u);
    EXPECT_EQ(star[1].nic.crcDrops(), 2u);
}

namespace {

/** A seeded lossy AM run; returns the full metrics dump. */
std::vector<std::pair<std::string, double>>
lossyAmMetricsDump(std::uint64_t seed)
{
    sim::Simulation s(seed);
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    fault::Plan plan = fault::Plan::parse(
        "seed=5 eth.link.0.drop=0.2 eth.link.0.corrupt=0.05 "
        "eth.link.1.drop=0.1");
    fault::attach(plan, s, link);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    int got = 0;
    const int total = 25;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setHandler(1, [&](sim::Process &, Token, const Args &,
                               std::span<const std::uint8_t>) {
            ++got;
        });
        amB->pollUntil(proc, [&] { return got >= total; },
                       sim::seconds(10));
        amB->pollUntil(proc, [] { return false; },
                       sim::milliseconds(5));
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        for (int i = 0; i < total; ++i)
            ASSERT_TRUE(amA->request(proc, chanA, 1, {}));
        EXPECT_TRUE(amA->drain(proc, sim::seconds(10)));
    });

    epA = &a.unet.createEndpoint(&procA, {});
    epB = &b.unet.createEndpoint(&procB, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);
    amA = std::make_unique<ActiveMessages>(a.unet, *epA);
    amB = std::make_unique<ActiveMessages>(b.unet, *epB);
    amA->openChannel(chanA);
    amB->openChannel(chanB);
    procA.start();
    procB.start();
    s.run();

    EXPECT_EQ(got, total);
    return s.metrics().dump();
}

} // namespace

TEST(FaultDeterminism, IdenticalSeedAndPlanGiveIdenticalMetrics)
{
    // The whole point of the plane: a failing soak run can be replayed
    // bit-for-bit. Two runs with the same sim seed and the same plan
    // must produce the same metrics registry down to the last counter.
    auto a = lossyAmMetricsDump(17);
    auto b = lossyAmMetricsDump(17);
    EXPECT_EQ(a, b);
}
