#include <gtest/gtest.h>

#include "am/active_messages.hh"
#include "fault/fault.hh"
#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::am;
using namespace unet::test;
using namespace unet::sim::literals;

namespace {

/**
 * Property harness: N messages with payloads derived from their index
 * are sent over a channel with deterministic pseudo-random loss; the
 * receiver must see every message exactly once, in order, intact.
 */
struct LossSweepResult
{
    int received = 0;
    bool in_order = true;
    bool intact = true;
    std::uint64_t retransmits = 0;
};

LossSweepResult
runLossSweep(double loss_rate, int total, std::uint64_t seed)
{
    sim::Simulation s(seed);
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    // Wire-level loss on A's transmit direction (the fault plane
    // replaces the old AM-layer injector: frames vanish after
    // occupying the wire, retransmissions included).
    fault::ModelSpec loss;
    loss.drop = loss_rate;
    fault::Injector inj(s, "eth.link.0", loss, seed * 7 + 1);
    link.setFaultInjector(&inj, 0);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    LossSweepResult result;
    int expected_index = 0;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setHandler(1, [&](sim::Process &, Token, const Args &args,
                               std::span<const std::uint8_t> data) {
            if (static_cast<int>(args[0]) != expected_index)
                result.in_order = false;
            ++expected_index;
            ++result.received;
            auto want = pattern(args[1],
                                static_cast<std::uint8_t>(args[0]));
            if (data.size() != want.size() ||
                !std::equal(want.begin(), want.end(), data.begin()))
                result.intact = false;
        });
        amB->pollUntil(proc, [&] { return result.received >= total; },
                       5_s);
        amB->pollUntil(proc, [] { return false; }, 3_ms);
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        for (int i = 0; i < total; ++i) {
            std::size_t size = (i * 37) % 900;
            auto payload = pattern(size,
                                   static_cast<std::uint8_t>(i));
            Args args = {static_cast<Word>(i),
                         static_cast<Word>(size), 0, 0};
            if (!amA->request(proc, chanA, 1, args, payload))
                return;
        }
        amA->drain(proc, 5_s);
        result.retransmits = amA->retransmits();
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
    return result;
}

} // namespace

class AmLossSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(AmLossSweep, ExactlyOnceInOrderDelivery)
{
    auto [loss_pct, seed] = GetParam();
    double rate = loss_pct / 100.0;
    const int total = 60;
    auto result = runLossSweep(rate, total, seed);
    EXPECT_EQ(result.received, total)
        << "loss=" << loss_pct << "% seed=" << seed;
    EXPECT_TRUE(result.in_order);
    EXPECT_TRUE(result.intact);
    if (loss_pct > 0)
        EXPECT_GT(result.retransmits, 0u);
    else
        EXPECT_EQ(result.retransmits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LossRatesAndSeeds, AmLossSweep,
    ::testing::Combine(::testing::Values(0, 5, 15, 30),
                       ::testing::Values(1u, 2u, 3u)));

class AmBidirLossSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Regression for the stale-piggybacked-ACK bug: with bidirectional
 * traffic and loss, retransmitted messages carry the ACK byte they
 * were composed with. A receiver must never treat such a stale
 * cumulative ACK as covering its outstanding window (which silently
 * dropped messages and corrupted bulk transfers).
 */
TEST_P(AmBidirLossSweep, BidirectionalLossExactlyOnce)
{
    std::uint64_t seed = GetParam();
    sim::Simulation s(seed);
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    // 15% wire loss in each direction, independently seeded.
    fault::ModelSpec loss;
    loss.drop = 0.15;
    fault::Injector injA(s, "eth.link.0", loss, seed * 3 + 1);
    fault::Injector injB(s, "eth.link.1", loss, seed * 5 + 2);
    link.setFaultInjector(&injA, 0);
    link.setFaultInjector(&injB, 1);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    const int total = 50;
    int gotA = 0, gotB = 0;
    std::uint64_t sumA = 0, sumB = 0;
    bool orderA = true, orderB = true;
    int nextA = 0, nextB = 0;
    int drained = 0;

    auto body = [&](std::unique_ptr<ActiveMessages> &mine,
                    ChannelId &chan, int &got,
                    std::uint64_t &sum, int &next, bool &order) {
        return [&](sim::Process &proc) {
            mine->setHandler(
                1, [&](sim::Process &, Token, const Args &args,
                       std::span<const std::uint8_t>) {
                    if (static_cast<int>(args[0]) != next)
                        order = false;
                    ++next;
                    ++got;
                    sum += args[0];
                });
            for (int i = 0; i < total; ++i)
                ASSERT_TRUE(mine->request(
                    proc, chan, 1, {static_cast<Word>(i), 0, 0, 0}));
            mine->pollUntil(proc, [&] { return got >= total; }, 10_s);
            mine->drain(proc, 10_s);
            // Keep servicing ACKs until the peer has drained too — a
            // one-sided exit would strand the peer's lost final ACK.
            ++drained;
            mine->pollUntil(proc, [&] { return drained >= 2; }, 10_s);
            mine->pollUntil(proc, [] { return false; }, 5_ms);
        };
    };

    sim::Process procA(s, "A",
                       body(amA, chanA, gotA, sumA, nextA, orderA));
    sim::Process procB(s, "B",
                       body(amB, chanB, gotB, sumB, nextB, orderB));

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

    const std::uint64_t want =
        static_cast<std::uint64_t>(total) * (total - 1) / 2;
    EXPECT_EQ(gotA, total);
    EXPECT_EQ(gotB, total);
    EXPECT_EQ(sumA, want);
    EXPECT_EQ(sumB, want);
    EXPECT_TRUE(orderA);
    EXPECT_TRUE(orderB);
    EXPECT_EQ(amA->deadChannels(), 0u);
    EXPECT_EQ(amB->deadChannels(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmBidirLossSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(AmProperty, TxPoolFullyRecoveredAfterLossyTraffic)
{
    // Chunks released through the retransmit quarantine must all come
    // back: after traffic quiesces, the pool is exactly as full as it
    // started.
    sim::Simulation s(21);
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    // 20% wire loss on A's transmissions.
    fault::ModelSpec loss;
    loss.drop = 0.2;
    fault::Injector inj(s, "eth.link.0", loss, 5);
    link.setFaultInjector(&inj, 0);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    int received = 0;
    const int total = 40;
    std::size_t initial_free = 0;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setHandler(1, [&](sim::Process &, Token, const Args &,
                               std::span<const std::uint8_t>) {
            ++received;
        });
        amB->pollUntil(proc, [&] { return received >= total; }, 10_s);
        amB->pollUntil(proc, [] { return false; }, 5_ms);
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        initial_free = amA->txChunksFree();
        auto payload = pattern(800); // forces chunk (non-inline) sends
        for (int i = 0; i < total; ++i)
            ASSERT_TRUE(amA->request(proc, chanA, 1, {}, payload));
        EXPECT_TRUE(amA->drain(proc, 10_s));
        // Give quarantined chunks a chance to be reclaimed.
        amA->pollUntil(proc, [&] {
            return amA->txChunksQuarantined() == 0;
        }, 100_ms);
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

    EXPECT_EQ(received, total);
    EXPECT_GT(amA->retransmits(), 0u);
    if (amA->txChunksFree() != initial_free ||
        amA->deadChannels() != 0) {
        amA->debugDump("A");
        amB->debugDump("B");
    }
    EXPECT_EQ(amA->deadChannels(), 0u);
    EXPECT_EQ(amA->txChunksQuarantined(), 0u);
    EXPECT_EQ(amA->txChunksHeld(), 0u);
    EXPECT_EQ(amA->txChunksFree(), initial_free);
}

TEST(AmProperty, AtmLargeBulkExact)
{
    // Large bulk transfers over U-Net/ATM exercise the multi-fragment,
    // multi-cell, (occasionally) multi-buffer receive path; every byte
    // must land intact even when the receiver polls lazily (forcing
    // window stalls and retransmissions).
    sim::Simulation s(7);
    AtmStar star(s, 2);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    std::vector<std::uint8_t> sink(300000, 0);
    bool done = false;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setBulkSink([&](std::uint32_t addr,
                             std::span<const std::uint8_t> d) {
            std::copy(d.begin(), d.end(), sink.begin() + addr);
        });
        amB->setHandler(2, [&](sim::Process &, Token, const Args &,
                               std::span<const std::uint8_t>) {
            done = true;
        });
        // Lazy receiver: compute 3 ms between polls, so the sender's
        // window stalls and its retransmit timer fires with stale ACK
        // bytes in flight.
        while (!done) {
            star[1].host.cpu().busy(proc, sim::milliseconds(3));
            amB->poll(proc);
        }
        amB->pollUntil(proc, [] { return false; }, 3_ms);
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        auto data = pattern(250000, 5);
        ASSERT_TRUE(amA->store(proc, chanA, 1234, data, 2));
        EXPECT_TRUE(amA->drain(proc, 10_s));
    });

    epA = &star[0].unet.createEndpoint(&procA, {});
    epB = &star[1].unet.createEndpoint(&procB, {});
    star.connect(0, *epA, 1, *epB, chanA, chanB);
    amA = std::make_unique<ActiveMessages>(star[0].unet, *epA);
    amB = std::make_unique<ActiveMessages>(star[1].unet, *epB);
    amA->openChannel(chanA);
    amB->openChannel(chanB);

    procA.start();
    procB.start();
    s.run();

    ASSERT_TRUE(done);
    auto want = pattern(250000, 5);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < want.size(); ++i)
        if (sink[1234 + i] != want[i])
            ++mismatches;
    EXPECT_EQ(mismatches, 0u)
        << "retransmits=" << amA->retransmits()
        << " duplicates=" << amB->duplicates();
}

TEST(AmProperty, BulkStoreSurvivesLoss)
{
    sim::Simulation s(11);
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    // 10% wire loss under the bulk transfer.
    fault::ModelSpec loss;
    loss.drop = 0.1;
    fault::Injector inj(s, "eth.link.0", loss, 99);
    link.setFaultInjector(&inj, 0);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    std::vector<std::uint8_t> sink(40000, 0);
    bool done = false;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setBulkSink([&](std::uint32_t addr,
                             std::span<const std::uint8_t> d) {
            std::copy(d.begin(), d.end(), sink.begin() + addr);
        });
        amB->setHandler(2, [&](sim::Process &, Token, const Args &,
                               std::span<const std::uint8_t>) {
            done = true;
        });
        amB->pollUntil(proc, [&] { return done; }, 5_s);
        amB->pollUntil(proc, [] { return false; }, 3_ms);
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        auto data = pattern(30000, 3);
        ASSERT_TRUE(amA->store(proc, chanA, 1000, data, 2));
        EXPECT_TRUE(amA->drain(proc, 5_s));
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

    ASSERT_TRUE(done);
    auto want = pattern(30000, 3);
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           sink.begin() + 1000));
}
