/**
 * @file
 * The batched submission/completion fast path: sendv/pollv semantics,
 * batch=1 equivalence with the scalar path, and reliability of
 * batched sends under burst loss.
 *
 * The equivalence suite is the contract that lets sendv exist at all:
 * a batch of one must be indistinguishable — every reply-arrival
 * tick, every metric — from the scalar send it replaces, under every
 * perturbation salt. The reliability suite drives batched sends
 * through a go-back-N-lite window over a bursty-lossy forward link
 * and asserts exactly-once in-order delivery with the whole window
 * acknowledged.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "bench/harness.hh"
#include "sim/perturb.hh"
#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::bench;
using namespace unet::test;
using namespace unet::sim::literals;

namespace {

constexpr std::uint64_t kSalts[] = {1, 2, 3, 4, 5};

// --- batch=1 equivalence with the scalar path ------------------------

/**
 * The fig5 golden workload with sends posted either through the
 * scalar send() or through sendv() with n == 1. Returns the
 * reply-arrival tick trace and its digest (trace + final time +
 * fired-event count + full metrics registry) in @p digest.
 */
std::vector<sim::Tick>
runFig5(std::uint64_t salt, Fabric fabric, std::size_t size,
        bool use_sendv, std::uint64_t &digest)
{
    sim::perturb::ScopedSalt scoped(salt);
    sim::Simulation s;
    RawPair rig(s, fabric);
    ReplyRun run = replyArrivals(
        s, rig, size, 4,
        [&](UNet &un, sim::Process &self, Endpoint &ep,
            const SendDescriptor &sd) {
            if (use_sendv)
                EXPECT_EQ(un.sendv(self, ep, &sd, 1), 1u);
            else
                EXPECT_TRUE(un.send(self, ep, sd));
        });
    digest = run.digest;
    return run.arrivals;
}

} // namespace

TEST(BatchedEquivalence, SendvBatch1MatchesScalarAcrossSalts)
{
    for (Fabric f : {Fabric::FeBay, Fabric::AtmOc3}) {
        for (std::size_t size : {std::size_t{40}, std::size_t{1024}}) {
            std::uint64_t scalar_digest = 0;
            auto scalar_trace =
                runFig5(0, f, size, /*use_sendv=*/false,
                        scalar_digest);
            ASSERT_EQ(scalar_trace.size(), 4u)
                << fabricName(f) << " scalar run stalled";
            for (std::uint64_t salt : kSalts) {
                std::uint64_t sendv_digest = 0;
                auto sendv_trace = runFig5(salt, f, size,
                                           /*use_sendv=*/true,
                                           sendv_digest);
                EXPECT_EQ(sendv_trace, scalar_trace)
                    << fabricName(f) << " size " << size << " salt "
                    << salt
                    << ": sendv batch=1 moved a reply-arrival tick";
                EXPECT_EQ(sendv_digest, scalar_digest)
                    << fabricName(f) << " size " << size << " salt "
                    << salt
                    << ": sendv batch=1 perturbed the metrics digest";
            }
        }
    }
}

// --- sendv/pollv unit semantics --------------------------------------

namespace {

/** Descriptors for @p n seq-stamped inline messages on @p chan. */
std::vector<SendDescriptor>
seqBatch(ChannelId chan, std::size_t n, std::uint32_t length = 40)
{
    std::vector<SendDescriptor> descs(n);
    for (std::size_t k = 0; k < n; ++k) {
        descs[k].channel = chan;
        descs[k].isInline = true;
        descs[k].inlineLength = length;
        descs[k].inlineData[0] = static_cast<std::uint8_t>(k);
    }
    return descs;
}

} // namespace

TEST(UNetSendv, FeBatchDeliversInOrderAndPollvDrains)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::size_t accepted = 0;

    sim::Process rx(s, "rx", [](sim::Process &) {});
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto descs = seqBatch(chanA, 4);
        accepted = a.unet.sendv(self, *epA, descs.data(), 4);
    });

    epA = &a.unet.createEndpoint(&tx, {});
    epB = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);

    rx.start();
    tx.start(1_us);
    s.run();

    EXPECT_EQ(accepted, 4u);
    EXPECT_EQ(a.unet.messagesSent(), 4u);
    EXPECT_EQ(b.unet.messagesDelivered(), 4u);

    // One pollv drains the whole batch, in posting order.
    RecvDescriptor out[8];
    EXPECT_EQ(b.unet.pollv(*epB, out, 8), 4u);
    for (std::uint32_t k = 0; k < 4; ++k) {
        EXPECT_TRUE(out[k].isSmall);
        EXPECT_EQ(out[k].length, 40u);
        EXPECT_EQ(out[k].inlineData[0], k) << "reordered at " << k;
    }
    EXPECT_EQ(b.unet.pollv(*epB, out, 8), 0u) << "queue not drained";
}

TEST(UNetSendv, AtmBatchDeliversInOrderAndPollvDrains)
{
    // Two adapters on one shared fiber, no switch in between.
    sim::Simulation s;
    host::Host hostA(s, "a", host::CpuSpec::pentium120(),
                     host::BusSpec::pci());
    host::Host hostB(s, "b", host::CpuSpec::pentium120(),
                     host::BusSpec::pci());
    atm::AtmLink link(s, atm::LinkSpec::oc3());
    nic::Pca200 nicA(hostA, link), nicB(hostB, link);
    UNetAtm ua(hostA, nicA), ub(hostB, nicB);

    sim::Process rx(s, "rx", [](sim::Process &) {});
    std::size_t accepted = 0;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    Endpoint *epA = nullptr, *epB = nullptr;

    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto descs = seqBatch(chanA, 4);
        accepted = ua.sendv(self, *epA, descs.data(), 4);
    });

    epA = &ua.createEndpoint(&tx, {});
    epB = &ub.createEndpoint(&rx, {});
    UNetAtm::connectDirect(ua, *epA, ub, *epB, 40, chanA, chanB);

    rx.start(1_us);
    tx.start(1_us);
    s.run();

    EXPECT_EQ(accepted, 4u);
    EXPECT_EQ(nicA.messagesSent(), 4u);
    EXPECT_EQ(nicB.messagesDelivered(), 4u);

    RecvDescriptor out[8];
    EXPECT_EQ(ub.pollv(*epB, out, 8), 4u);
    for (std::uint32_t k = 0; k < 4; ++k) {
        EXPECT_TRUE(out[k].isSmall);
        EXPECT_EQ(out[k].inlineData[0], k) << "reordered at " << k;
    }
    EXPECT_EQ(ub.pollv(*epB, out, 8), 0u);
}

TEST(UNetSendv, PartialAcceptStopsAtFullWindow)
{
    // A half-full 4-deep send queue rejects the tail of a 4-message
    // batch: the accept-in-order / stop-at-first-rejection contract.
    // The firmware's tx poll is slowed to a crawl so the first batch
    // is still queued when the second posts.
    sim::Simulation s;
    host::Host hostA(s, "a", host::CpuSpec::pentium120(),
                     host::BusSpec::pci());
    host::Host hostB(s, "b", host::CpuSpec::pentium120(),
                     host::BusSpec::pci());
    atm::AtmLink link(s, atm::LinkSpec::oc3());
    nic::Pca200Spec slow;
    slow.txPollActive = sim::milliseconds(1);
    slow.txPollIdle = sim::milliseconds(1);
    nic::Pca200 nicA(hostA, link, slow), nicB(hostB, link);
    UNetAtm ua(hostA, nicA), ub(hostB, nicB);

    EndpointConfig cfg;
    cfg.sendQueueDepth = 4;
    std::size_t accepted = 99;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    Endpoint *epA = nullptr, *epB = nullptr;

    sim::Process rx(s, "rx", [](sim::Process &) {});
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto first = seqBatch(chanA, 2);
        ASSERT_EQ(ua.sendv(self, *epA, first.data(), 2), 2u);
        auto second = seqBatch(chanA, 4);
        for (std::uint8_t k = 0; k < 4; ++k)
            second[k].inlineData[0] = static_cast<std::uint8_t>(2 + k);
        accepted = ua.sendv(self, *epA, second.data(), 4);
    });

    epA = &ua.createEndpoint(&tx, cfg);
    epB = &ub.createEndpoint(&rx, {});
    UNetAtm::connectDirect(ua, *epA, ub, *epB, 40, chanA, chanB);

    rx.start(1_us);
    tx.start(1_us);
    s.run();

    EXPECT_EQ(accepted, 2u);
    // The accepted prefixes still arrive, in posting order: 0,1 from
    // the first batch, 2,3 from the second.
    RecvDescriptor out[8];
    ASSERT_EQ(ub.pollv(*epB, out, 8), 4u);
    for (std::uint32_t k = 0; k < 4; ++k)
        EXPECT_EQ(out[k].inlineData[0], k);
}

namespace {

void
postOversizedBatch()
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    Endpoint *epA = nullptr, *epB = nullptr;
    sim::Process rx(s, "rx", [](sim::Process &) {});
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        // 65 descriptors against the default 64-entry queue.
        auto descs = seqBatch(chanA, 65);
        a.unet.sendv(self, *epA, descs.data(), descs.size());
    });
    epA = &a.unet.createEndpoint(&tx, {});
    epB = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);
    rx.start();
    tx.start(1_us);
    s.run();
}

} // namespace

TEST(UNetSendvDeathTest, OversizedBatchPanics)
{
    EXPECT_DEATH(postOversizedBatch(), "exceeds the");
}

// --- batched sends under burst loss ----------------------------------

/**
 * Go-back-N-lite over a bursty forward link: the sender keeps at most
 * 8 sequences unacknowledged, data flows in sendv batches of 4 over
 * eth.link direction 0 armed with a Gilbert-Elliott burst dropper, and
 * cumulative acks return on the clean reverse direction via scalar
 * sends. Every sequence number must be delivered to the application
 * exactly once, in order, and the sender must see all of them
 * acknowledged.
 */
TEST(BatchedReliability, ExactlyOnceUnderBurstDrop)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);
    fault::Plan plan =
        fault::Plan::parse("seed=11 eth.link.0.ge=0.3/0.4/1.0");
    // Armed by hand (not fault::attach) to keep the injector handle:
    // the test must prove the run actually lost frames.
    fault::Injector *dropper = plan.arm(s, "eth.link.0");
    link.setFaultInjector(dropper, 0);

    constexpr std::uint8_t kTotal = 24;
    constexpr std::size_t kWindow = 8;
    constexpr std::size_t kBatch = 4;

    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    Endpoint *epA = nullptr, *epB = nullptr;
    std::vector<std::uint8_t> delivered;
    bool sender_done = false;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        std::uint8_t expected = 0;
        RecvDescriptor rd[8];
        while (expected < kTotal) {
            RecvDescriptor first;
            if (!epB->wait(self, first, 2_ms))
                return; // stall: the final asserts will report it
            rd[0] = first;
            std::size_t got = 1 + b.unet.pollv(*epB, rd + 1, 7);
            for (std::size_t i = 0; i < got; ++i) {
                // In-order filter: duplicates and go-back-N replays
                // of later sequences are dropped on the floor.
                if (rd[i].inlineData[0] == expected) {
                    delivered.push_back(expected);
                    ++expected;
                }
            }
            // Cumulative ack on the clean reverse path.
            SendDescriptor ack;
            ack.channel = chanB;
            ack.isInline = true;
            ack.inlineLength = 8;
            ack.inlineData[0] = expected;
            b.unet.send(self, *epB, ack);
        }
    });

    sim::Process tx(s, "tx", [&](sim::Process &self) {
        std::uint8_t base = 0;       // first unacked
        std::uint8_t next = 0;       // next to (re)transmit
        int stalls = 0;
        while (base < kTotal && stalls < 400) {
            // Fill the window in batches.
            while (next < kTotal &&
                   static_cast<std::size_t>(next - base) < kWindow) {
                std::size_t room =
                    std::min({kBatch,
                              static_cast<std::size_t>(kTotal - next),
                              kWindow -
                                  static_cast<std::size_t>(next -
                                                           base)});
                auto descs = seqBatch(chanA, room);
                for (std::size_t k = 0; k < room; ++k)
                    descs[k].inlineData[0] =
                        static_cast<std::uint8_t>(next + k);
                ASSERT_EQ(a.unet.sendv(self, *epA, descs.data(), room),
                          room);
                next = static_cast<std::uint8_t>(next + room);
            }
            // Wait for a cumulative ack; on timeout, go back to base.
            RecvDescriptor rd;
            if (epA->wait(self, rd, 400_us)) {
                std::uint8_t ack = rd.inlineData[0];
                RecvDescriptor more[8];
                std::size_t extra = a.unet.pollv(*epA, more, 8);
                for (std::size_t i = 0; i < extra; ++i)
                    ack = std::max(ack, more[i].inlineData[0]);
                base = std::max(base, ack);
            } else {
                ++stalls;
                next = base; // go-back-N retransmit
            }
        }
        sender_done = base == kTotal;
    });

    epA = &a.unet.createEndpoint(&tx, {});
    epB = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);

    rx.start();
    tx.start(5_us);
    s.run();

    ASSERT_TRUE(sender_done) << "window never fully acknowledged";
    ASSERT_NE(dropper, nullptr);
    EXPECT_GT(dropper->dropped(), 0u)
        << "burst model never fired; the scenario is vacuous";
    ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kTotal));
    for (std::uint8_t i = 0; i < kTotal; ++i)
        EXPECT_EQ(delivered[i], i) << "out of order at " << unsigned(i);
    // Exactly-once: the in-order filter plus a full count implies no
    // duplicate reached the application; no sequence was lost.
    std::set<std::uint8_t> unique(delivered.begin(), delivered.end());
    EXPECT_EQ(unique.size(), delivered.size());
    EXPECT_EQ(a.unet.txBacklog(*epA), 0u);
}
