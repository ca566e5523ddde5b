#include <gtest/gtest.h>

#include "am/active_messages.hh"
#include "eth/switch.hh"
#include "fault/fault.hh"
#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::am;
using namespace unet::test;
using namespace unet::sim::literals;

namespace {

/** Two FE nodes, one endpoint + AM instance each, channel open. */
struct AmPair
{
    AmPair()
        : link(s), a(s, link, 0), b(s, link, 1),
          procA(s, "A", [this](sim::Process &p) { bodyA(p); }),
          procB(s, "B", [this](sim::Process &p) { bodyB(p); })
    {
        EndpointConfig cfg;
        epA = &a.unet.createEndpoint(&procA, cfg);
        epB = &b.unet.createEndpoint(&procB, cfg);
        UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);
        amA = std::make_unique<ActiveMessages>(a.unet, *epA);
        amB = std::make_unique<ActiveMessages>(b.unet, *epB);
        amA->openChannel(chanA);
        amB->openChannel(chanB);
    }

    void
    run()
    {
        procA.start();
        procB.start();
        s.run();
        ASSERT_TRUE(procA.finished()) << "A did not finish";
        ASSERT_TRUE(procB.finished()) << "B did not finish";
    }

    std::function<void(sim::Process &)> bodyA = [](sim::Process &) {};
    std::function<void(sim::Process &)> bodyB = [](sim::Process &) {};

    sim::Simulation s;
    eth::FullDuplexLink link;
    FeNode a, b;
    sim::Process procA, procB;
    Endpoint *epA = nullptr;
    Endpoint *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
};

} // namespace

TEST(ActiveMessages, RequestReplyRoundTrip)
{
    AmPair p;
    bool replied = false;
    Args seen_args{};

    p.bodyB = [&](sim::Process &proc) {
        p.amB->setHandler(1, [&](sim::Process &inner, Token tok,
                                 const Args &args,
                                 std::span<const std::uint8_t>) {
            // Echo back args, doubled.
            p.amB->reply(inner, tok, 2,
                         {args[0] * 2, args[1] * 2, args[2], args[3]});
        });
        p.amB->pollUntil(proc, [&] { return p.amB->received() >= 1; },
                         10_ms);
        p.amB->drain(proc, 10_ms);
    };
    p.bodyA = [&](sim::Process &proc) {
        p.amA->setHandler(2, [&](sim::Process &, Token, const Args &args,
                                 std::span<const std::uint8_t>) {
            replied = true;
            seen_args = args;
        });
        ASSERT_TRUE(p.amA->request(proc, p.chanA, 1, {21, 50, 3, 4}));
        p.amA->pollUntil(proc, [&] { return replied; }, 10_ms);
    };
    p.run();

    EXPECT_TRUE(replied);
    EXPECT_EQ(seen_args[0], 42u);
    EXPECT_EQ(seen_args[1], 100u);
}

TEST(ActiveMessages, PayloadIntegritySmallAndLarge)
{
    AmPair p;
    std::vector<std::uint8_t> got_small, got_large;

    p.bodyB = [&](sim::Process &proc) {
        p.amB->setHandler(1, [&](sim::Process &, Token, const Args &args,
                                 std::span<const std::uint8_t> data) {
            if (args[0] == 1)
                got_small.assign(data.begin(), data.end());
            else
                got_large.assign(data.begin(), data.end());
        });
        p.amB->pollUntil(proc, [&] { return p.amB->received() >= 2; },
                         10_ms);
        // Let the final ACK flush so A's drain() succeeds.
        p.amB->pollUntil(proc, [] { return false; }, 1_ms);
    };
    p.bodyA = [&](sim::Process &proc) {
        auto small = pattern(16, 5);
        auto large = pattern(1200, 6);
        ASSERT_TRUE(p.amA->request(proc, p.chanA, 1, {1, 0, 0, 0},
                                   small));
        ASSERT_TRUE(p.amA->request(proc, p.chanA, 1, {2, 0, 0, 0},
                                   large));
        EXPECT_TRUE(p.amA->drain(proc, 10_ms));
    };
    p.run();

    EXPECT_EQ(got_small, pattern(16, 5));
    EXPECT_EQ(got_large, pattern(1200, 6));
}

TEST(ActiveMessages, BulkStoreDeliversToSink)
{
    AmPair p;
    std::vector<std::uint8_t> sink(20000, 0);
    bool done = false;
    std::uint32_t done_addr = 0, done_total = 0;

    p.bodyB = [&](sim::Process &proc) {
        p.amB->setBulkSink([&](std::uint32_t addr,
                               std::span<const std::uint8_t> data) {
            std::copy(data.begin(), data.end(), sink.begin() + addr);
        });
        p.amB->setHandler(7, [&](sim::Process &, Token, const Args &args,
                                 std::span<const std::uint8_t>) {
            done = true;
            done_addr = args[0];
            done_total = args[1];
        });
        p.amB->pollUntil(proc, [&] { return done; }, 50_ms);
        p.amB->pollUntil(proc, [] { return false; }, 1_ms);
    };
    p.bodyA = [&](sim::Process &proc) {
        auto data = pattern(10000, 9);
        ASSERT_TRUE(p.amA->store(proc, p.chanA, 4096, data, 7));
        EXPECT_TRUE(p.amA->drain(proc, 50_ms));
    };
    p.run();

    ASSERT_TRUE(done);
    EXPECT_EQ(done_addr, 4096u);
    EXPECT_EQ(done_total, 10000u);
    auto expect = pattern(10000, 9);
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                           sink.begin() + 4096));
}

TEST(ActiveMessages, WindowBlocksSender)
{
    AmPair p;
    // B never polls until late: A's window (8) fills and A must wait
    // for ACKs before message 9 departs.
    sim::Tick ninth_sent = 0;

    p.bodyB = [&](sim::Process &proc) {
        proc.delay(5_ms); // stay silent: no polls, no ACKs
        p.amB->pollUntil(proc, [&] { return p.amB->received() >= 9; },
                         100_ms);
        p.amB->pollUntil(proc, [] { return false; }, 1_ms);
    };
    p.bodyA = [&](sim::Process &proc) {
        for (int i = 0; i < 9; ++i)
            ASSERT_TRUE(p.amA->request(proc, p.chanA, 1, {}));
        ninth_sent = p.s.now();
        p.amA->drain(proc, 100_ms);
    };
    p.amB->setHandler(1, [](sim::Process &, Token, const Args &,
                            std::span<const std::uint8_t>) {});
    p.run();

    // The 9th message could not be posted until B woke at 5 ms.
    EXPECT_GE(ninth_sent, 5_ms);
}

TEST(ActiveMessages, RetransmissionRecoversLoss)
{
    AmPair p;
    int received = 0;
    // Drop the first transmission of sequence 2 on the wire: A sends
    // only data frames (no ACKs flow A->B in this one-way pattern), so
    // the third frame off A's NIC is seq 2's first transmission.
    fault::ModelSpec loss;
    loss.dropUnits = {2};
    fault::Injector inj(p.s, "eth.link.0", loss, 1);
    p.link.setFaultInjector(&inj, 0);

    p.bodyB = [&](sim::Process &proc) {
        p.amB->setHandler(1, [&](sim::Process &, Token, const Args &,
                                 std::span<const std::uint8_t>) {
            ++received;
        });
        p.amB->pollUntil(proc, [&] { return received >= 5; }, 100_ms);
        p.amB->pollUntil(proc, [] { return false; }, 2_ms);
    };
    p.bodyA = [&](sim::Process &proc) {
        for (int i = 0; i < 5; ++i)
            ASSERT_TRUE(p.amA->request(proc, p.chanA, 1, {}));
        EXPECT_TRUE(p.amA->drain(proc, 100_ms));
    };
    p.run();

    EXPECT_EQ(received, 5);
    EXPECT_GT(p.amA->retransmits(), 0u);
    // Go-Back-N: messages 3 and 4 arrived out of order first and were
    // dropped as duplicates at B.
    EXPECT_GT(p.amB->duplicates(), 0u);
}

TEST(ActiveMessages, LossyChannelStressStaysReliable)
{
    AmPair p;
    // Drop ~20% of A's frames at the wire (seeded, so deterministic) —
    // retransmissions are fair game too.
    fault::ModelSpec loss;
    loss.drop = 0.2;
    fault::Injector inj(p.s, "eth.link.0", loss, 42);
    p.link.setFaultInjector(&inj, 0);

    const int total = 100;
    int received = 0;
    std::uint32_t sum = 0;

    p.bodyB = [&](sim::Process &proc) {
        p.amB->setHandler(1, [&](sim::Process &, Token, const Args &a,
                                 std::span<const std::uint8_t>) {
            ++received;
            sum += a[0];
        });
        p.amB->pollUntil(proc, [&] { return received >= total; }, 2_s);
        p.amB->pollUntil(proc, [] { return false; }, 2_ms);
    };
    p.bodyA = [&](sim::Process &proc) {
        for (int i = 0; i < total; ++i)
            ASSERT_TRUE(p.amA->request(proc, p.chanA, 1,
                                       {static_cast<Word>(i), 0, 0, 0}));
        EXPECT_TRUE(p.amA->drain(proc, 2_s));
    };
    p.run();

    EXPECT_EQ(received, total); // exactly once, in order
    EXPECT_EQ(sum, static_cast<std::uint32_t>(total * (total - 1) / 2));
    EXPECT_GT(p.amA->retransmits(), 0u);
}

TEST(ActiveMessages, ChannelDiesAfterMaxRetries)
{
    AmPair p;
    // Sever A's wire direction entirely, retransmits included.
    fault::ModelSpec loss;
    loss.drop = 1.0;
    fault::Injector inj(p.s, "eth.link.0", loss, 1);
    p.link.setFaultInjector(&inj, 0);

    p.bodyA = [&](sim::Process &proc) {
        EXPECT_TRUE(p.amA->request(proc, p.chanA, 1, {}));
        // The message is never delivered; retries exhaust and the
        // channel is declared dead (drain then trivially completes).
        p.amA->pollUntil(proc, [&] { return p.amA->deadChannels() > 0; },
                         1_s);
        EXPECT_GE(p.amA->retransmits(), 16u);
        // Further sends fail fast.
        EXPECT_FALSE(p.amA->request(proc, p.chanA, 1, {}));
    };
    p.run();
    EXPECT_EQ(p.amA->deadChannels(), 1u);
}

TEST(ActiveMessages, AckProgressReArmsTheBaseTimeout)
{
    // Node 0's AM holds channels to nodes 1 and 2 on a switch. Its
    // window to node 1 backs off twice; then a partial cumulative ACK
    // arrives. Progress resets the backoff, so the next go-back-N
    // resend leaves one base timeout after the previous one, not the
    // four that retries = 2 would wait.
    sim::Simulation s;
    eth::Switch sw(s);
    FeNode a(s, sw, 0), b(s, sw, 1), c(s, sw, 2);
    ChannelId ab = invalidChannel, ba = invalidChannel;
    ChannelId ac = invalidChannel, ca = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB, amC;
    const sim::Tick rto = AmSpec{}.retransmitTimeout;

    // Units are A's data frames as node 1 receives them. Seq 0 gets
    // through; every transmission of seqs 1-3 is lost until the second
    // go-back-N burst, whose first frame (seq 1) arrives alone.
    fault::ModelSpec loss;
    loss.dropUnits = {1, 2, 3, 4, 5, 6, 8, 9};
    fault::Injector inj(s, "node1.nic", loss, 1);
    b.nic.setRxFaultInjector(&inj);

    std::vector<std::pair<Word, sim::Tick>> arrivals;
    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setHandler(1, [&](sim::Process &, Token, const Args &args,
                               std::span<const std::uint8_t>) {
            arrivals.emplace_back(args[0], s.now());
        });
        amB->pollUntil(proc, [&] { return arrivals.size() >= 4; },
                       100_ms);
        amB->pollUntil(proc, [] { return false; }, 2_ms);
    });
    sim::Process procC(s, "C", [&](sim::Process &proc) {
        amC->setHandler(1, [](sim::Process &, Token, const Args &,
                              std::span<const std::uint8_t>) {});
        amC->pollUntil(proc, [&] { return amC->received() >= 1; },
                       10_ms);
        amC->pollUntil(proc, [] { return false; }, 2_ms);
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        // Channel 2's window is empty before channel 1's losses begin.
        ASSERT_TRUE(amA->request(proc, ac, 1, {}));
        ASSERT_TRUE(amA->drain(proc, 10_ms));
        for (Word i = 0; i < 4; ++i)
            ASSERT_TRUE(amA->request(proc, ab, 1, {i, 0, 0, 0}));
        EXPECT_TRUE(amA->drain(proc, 100_ms));
    });

    Endpoint &epA = a.unet.createEndpoint(&procA, {});
    Endpoint &epB = b.unet.createEndpoint(&procB, {});
    Endpoint &epC = c.unet.createEndpoint(&procC, {});
    UNetFe::connect(a.unet, epA, b.unet, epB, ab, ba);
    UNetFe::connect(a.unet, epA, c.unet, epC, ac, ca);
    amA = std::make_unique<ActiveMessages>(a.unet, epA);
    amB = std::make_unique<ActiveMessages>(b.unet, epB);
    amC = std::make_unique<ActiveMessages>(c.unet, epC);
    amA->openChannel(ab);
    amA->openChannel(ac);
    amB->openChannel(ba);
    amC->openChannel(ca);

    procA.start();
    procB.start();
    procC.start();
    s.run();

    // Bursts of 3, 3 and then 2: seqs 2 and 3 once more after the ACK.
    EXPECT_EQ(amA->retransmits(), 8u);
    ASSERT_EQ(arrivals.size(), 4u);
    for (Word i = 0; i < 4; ++i)
        EXPECT_EQ(arrivals[i].first, i);
    // Seq 1 led the second burst and seq 2 leads the third, so the
    // gap between their arrivals is the gap between the bursts: the
    // base timeout plus the sender's poll delay (1.12 ms), where the
    // backed-off timer would wait 4 ms.
    sim::Tick gap = arrivals[2].second - arrivals[1].second;
    EXPECT_GE(gap, rto);
    EXPECT_LT(gap, 2 * rto) << "bursts " << sim::toMicroseconds(gap)
                            << " us apart";
}

TEST(ActiveMessages, OneWayTrafficGetsExplicitAcks)
{
    AmPair p;
    int received = 0;

    p.bodyB = [&](sim::Process &proc) {
        p.amB->setHandler(1, [&](sim::Process &, Token, const Args &,
                                 std::span<const std::uint8_t>) {
            ++received;
        });
        p.amB->pollUntil(proc, [&] { return received >= 12; }, 100_ms);
        p.amB->pollUntil(proc, [] { return false; }, 2_ms);
    };
    p.bodyA = [&](sim::Process &proc) {
        for (int i = 0; i < 12; ++i)
            ASSERT_TRUE(p.amA->request(proc, p.chanA, 1, {}));
        EXPECT_TRUE(p.amA->drain(proc, 100_ms));
    };
    p.run();

    // B never sends data, so its ACKs must have been explicit.
    EXPECT_GT(p.amB->explicitAcks(), 0u);
    EXPECT_EQ(p.amA->retransmits(), 0u) << "ACKs should beat timeouts";
}

TEST(ActiveMessages, WorksOverAtmToo)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    bool replied = false;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setHandler(1, [&](sim::Process &inner, Token tok,
                               const Args &args,
                               std::span<const std::uint8_t> data) {
            EXPECT_EQ(data.size(), 8u);
            amB->reply(inner, tok, 2, {args[0] + 1, 0, 0, 0});
        });
        amB->pollUntil(proc, [&] { return amB->received() >= 1; },
                       10_ms);
        amB->pollUntil(proc, [] { return false; }, 2_ms);
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        amA->setHandler(2, [&](sim::Process &, Token, const Args &args,
                               std::span<const std::uint8_t>) {
            EXPECT_EQ(args[0], 8u);
            replied = true;
        });
        auto payload = pattern(8);
        ASSERT_TRUE(amA->request(proc, chanA, 1, {7, 0, 0, 0}, payload));
        amA->pollUntil(proc, [&] { return replied; }, 10_ms);
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
    EXPECT_TRUE(replied);
}
