#include <gtest/gtest.h>

#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::test;
using namespace unet::sim::literals;

namespace {

/** Send one inline message from star node 0 to node 1. */
void
sendOne(sim::Simulation &s, AtmStar &star, Endpoint *epA,
        ChannelId chanA, sim::Process &tx, std::size_t size = 20)
{
    auto data = pattern(size);
    star[0].unet.send(tx, *epA, inlineSend(chanA, data));
    (void)s;
}

} // namespace

TEST(Pca200, WeightedPollingFavorsActiveEndpoints)
{
    // The second of two back-to-back sends sees the short "active"
    // poll latency; a long-idle endpoint pays the idle latency again.
    sim::Simulation s;
    AtmStar star(s, 2);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::vector<sim::Tick> arrivals;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        RecvDescriptor rd;
        while (epB->wait(self, rd, sim::seconds(3)))
            arrivals.push_back(s.now());
    });
    std::vector<sim::Tick> sends;
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        sends.push_back(s.now());
        sendOne(s, star, epA, chanA, tx);
        // Queue drains; endpoint is now "active".
        self.delay(100_us);
        sends.push_back(s.now());
        sendOne(s, star, epA, chanA, tx);
        // Wait past the activity window; endpoint is idle again.
        self.delay(star[0].nic.spec().activityWindow + 1_ms);
        sends.push_back(s.now());
        sendOne(s, star, epA, chanA, tx);
    });

    epA = &star[0].unet.createEndpoint(&tx, {});
    epB = &star[1].unet.createEndpoint(&rx, {});
    star.connect(0, *epA, 1, *epB, chanA, chanB);
    rx.start();
    tx.start();
    s.run();

    ASSERT_EQ(arrivals.size(), 3u);
    ASSERT_EQ(sends.size(), 3u);
    // Path latency of message 2 (active poll) is shorter than message 1
    // and message 3 (idle poll).
    sim::Tick lat1 = arrivals[0] - sends[0];
    sim::Tick lat2 = arrivals[1] - sends[1];
    sim::Tick lat3 = arrivals[2] - sends[2];
    EXPECT_LT(lat2, lat1);
    EXPECT_GT(lat3, lat2);
    sim::Tick poll_gap = star[0].nic.spec().txPollIdle -
        star[0].nic.spec().txPollActive;
    EXPECT_NEAR(static_cast<double>(lat1 - lat2),
                static_cast<double>(poll_gap),
                static_cast<double>(1_us));
}

TEST(Pca200, FifoOverflowCounts)
{
    sim::Simulation s;
    nic::Pca200Spec spec;
    spec.rxFifoCells = 4;
    // Make the i960 glacial so the FIFO backs up.
    spec.rxSingleCell = sim::milliseconds(1);

    host::Host hostA(s, "a", host::CpuSpec::pentium120(),
                     host::BusSpec::pci());
    host::Host hostB(s, "b", host::CpuSpec::pentium120(),
                     host::BusSpec::pci());
    atm::AtmLink link(s, atm::LinkSpec::oc3());
    nic::Pca200 nicA(hostA, link);
    nic::Pca200 nicB(hostB, link, spec);
    UNetAtm ua(hostA, nicA), ub(hostB, nicB);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;

    sim::Process rx(s, "rx", [](sim::Process &) {});
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto data = pattern(20);
        for (int i = 0; i < 32; ++i)
            ua.send(self, *epA, inlineSend(chanA, data));
    });

    epA = &ua.createEndpoint(&tx, {});
    epB = &ub.createEndpoint(&rx, {});
    UNetAtm::connectDirect(ua, *epA, ub, *epB, 40, chanA, chanB);
    tx.start();
    s.runUntil(sim::milliseconds(10));

    EXPECT_GT(nicB.fifoOverflows(), 0u);
}

TEST(Pca200, RemoveVciStopsDelivery)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    bool got = false;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        RecvDescriptor rd;
        got = epB->wait(self, rd, 5_ms);
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto data = pattern(20);
        star[0].unet.send(self, *epA, inlineSend(chanA, data));
    });

    epA = &star[0].unet.createEndpoint(&tx, {});
    epB = &star[1].unet.createEndpoint(&rx, {});
    star.connect(0, *epA, 1, *epB, chanA, chanB);

    // Tear down the receive demux before the cell lands.
    star[1].nic.removeVci(epB->channel(chanB).vci);

    rx.start();
    tx.start();
    s.run();
    EXPECT_FALSE(got);
    EXPECT_EQ(star[1].nic.badVciCells(), 1u);
}

TEST(Pca200, CellAndMessageStats)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        // Only the owner may post buffers (protection).
        star[1].unet.postFree(self, *epB, {0, 1024});
        RecvDescriptor rd;
        int n = 0;
        while (n < 3 && epB->wait(self, rd, 5_ms))
            ++n;
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto small = pattern(20);
        star[0].unet.send(self, *epA, inlineSend(chanA, small));
        star[0].unet.send(self, *epA, inlineSend(chanA, small));
        epA->buffers().write({0, 200}, pattern(200));
        star[0].unet.send(self, *epA, fragmentSend(chanA, {0, 200}));
    });

    epA = &star[0].unet.createEndpoint(&tx, {});
    epB = &star[1].unet.createEndpoint(&rx, {});
    star.connect(0, *epA, 1, *epB, chanA, chanB);

    rx.start();
    tx.start(1_us);
    s.run();

    // 1 + 1 + ceil((200+8)/48)=5 cells.
    EXPECT_EQ(star[0].nic.cellsSent(), 7u);
    EXPECT_EQ(star[0].nic.messagesSent(), 3u);
    EXPECT_EQ(star[1].nic.cellsReceived(), 7u);
    EXPECT_EQ(star[1].nic.messagesDelivered(), 3u);
}
