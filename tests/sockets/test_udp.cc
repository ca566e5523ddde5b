#include <gtest/gtest.h>

#include "bench/soak.hh"
#include "eth/switch.hh"
#include "sockets/udp_stack.hh"

using namespace unet;
using namespace unet::sockets;
using namespace unet::sim::literals;

namespace {

struct Rig
{
    Rig()
        : sw(s, eth::SwitchSpec::bay28115()),
          hostA(s, "a", host::CpuSpec::pentium120(),
                host::BusSpec::pci()),
          hostB(s, "b", host::CpuSpec::pentium120(),
                host::BusSpec::pci()),
          nicA(hostA, sw, eth::MacAddress::fromIndex(1)),
          nicB(hostB, sw, eth::MacAddress::fromIndex(2)),
          stackA(hostA, nicA), stackB(hostB, nicB)
    {}

    sim::Simulation s;
    eth::Switch sw;
    host::Host hostA, hostB;
    nic::Dc21140 nicA, nicB;
    UdpStack stackA, stackB;
};

using bench::pattern;

} // namespace

TEST(UdpSockets, DatagramRoundTripIntact)
{
    Rig rig;
    auto payload = pattern(100, 4);
    bool got = false;

    sim::Process rx(rig.s, "rx", [&](sim::Process &self) {
        auto &sock = rig.stackB.createSocket(&self, 7000);
        auto dg = sock.recvFrom(self, 10_ms);
        ASSERT_TRUE(dg.has_value());
        EXPECT_EQ(dg->data, payload);
        EXPECT_EQ(dg->srcMac, rig.stackA.address());
        EXPECT_EQ(dg->srcPort, 5000);
        got = true;
    });
    sim::Process tx(rig.s, "tx", [&](sim::Process &self) {
        auto &sock = rig.stackA.createSocket(&self, 5000);
        EXPECT_TRUE(sock.sendTo(self, rig.stackB.address(), 7000,
                                payload));
    });

    rx.start();
    tx.start(1_us);
    rig.s.run();
    EXPECT_TRUE(got);
    EXPECT_EQ(rig.stackB.packetsDelivered(), 1u);
}

TEST(UdpSockets, LatencyFarAboveUNet)
{
    // The whole point of the paper: the in-kernel path costs an order
    // of magnitude more than U-Net's ~57-91 us round trips.
    Rig rig;
    sim::Tick rtt = -1;

    sim::Process echo(rig.s, "echo", [&](sim::Process &self) {
        auto &sock = rig.stackB.createSocket(&self, 7000);
        auto dg = sock.recvFrom(self, 50_ms);
        if (dg)
            sock.sendTo(self, dg->srcMac, dg->srcPort, dg->data);
    });
    sim::Process ping(rig.s, "ping", [&](sim::Process &self) {
        auto &sock = rig.stackA.createSocket(&self, 5000);
        auto payload = pattern(40);
        sim::Tick t0 = rig.s.now();
        sock.sendTo(self, rig.stackB.address(), 7000, payload);
        auto dg = sock.recvFrom(self, 50_ms);
        ASSERT_TRUE(dg.has_value());
        rtt = rig.s.now() - t0;
    });

    echo.start();
    ping.start(1_us);
    rig.s.run();
    // Somewhere in the hundreds of microseconds.
    EXPECT_GT(sim::toMicroseconds(rtt), 150.0);
    EXPECT_LT(sim::toMicroseconds(rtt), 600.0);
}

TEST(UdpSockets, SocketBufferOverflowDrops)
{
    Rig rig;
    sim::Process rx(rig.s, "rx", [&](sim::Process &self) {
        auto &sock = rig.stackB.createSocket(&self, 7000);
        // Never read; let the buffer fill.
        self.delay(50_ms);
        EXPECT_GT(sock.drops(), 0u);
    });
    sim::Process tx(rig.s, "tx", [&](sim::Process &self) {
        auto &sock = rig.stackA.createSocket(&self, 5000);
        auto payload = pattern(1400);
        // 64 KB buffer holds ~46 of these.
        for (int i = 0; i < 80; ++i)
            sock.sendTo(self, rig.stackB.address(), 7000, payload);
    });
    rx.start();
    tx.start(1_us);
    rig.s.run();
}

TEST(UdpSockets, UnknownPortCounted)
{
    Rig rig;
    sim::Process tx(rig.s, "tx", [&](sim::Process &self) {
        auto &sock = rig.stackA.createSocket(&self, 5000);
        auto payload = pattern(10);
        sock.sendTo(self, rig.stackB.address(), 9999, payload);
    });
    tx.start();
    rig.s.run();
    EXPECT_EQ(rig.stackB.noPortDrops(), 1u);
}

TEST(UdpSockets, OversizedDatagramRejected)
{
    Rig rig;
    sim::Process tx(rig.s, "tx", [&](sim::Process &self) {
        auto &sock = rig.stackA.createSocket(&self, 5000);
        std::vector<std::uint8_t> big(2000, 1);
        sim::setLogLevel(sim::LogLevel::Silent);
        EXPECT_FALSE(sock.sendTo(self, rig.stackB.address(), 7000,
                                 big));
        sim::setLogLevel(sim::LogLevel::Warnings);
    });
    tx.start();
    rig.s.run();
}

TEST(UdpSockets, EphemeralPortsAreDistinct)
{
    Rig rig;
    sim::Process p(rig.s, "p", [&](sim::Process &self) {
        auto &s1 = rig.stackA.createSocket(&self);
        auto &s2 = rig.stackA.createSocket(&self);
        EXPECT_NE(s1.port(), s2.port());
    });
    p.start();
    rig.s.run();
}

TEST(UdpSockets, TxRingBacklogEnobufs)
{
    // A two-slot TX ring backs up under back-to-back sends: the driver
    // finds the descriptor still device-owned and reports ENOBUFS (the
    // datagram is silently dropped, 90s UDP semantics).
    sim::Simulation s;
    eth::Switch sw(s, eth::SwitchSpec::bay28115());
    host::Host hostA(s, "a", host::CpuSpec::pentium120(),
                     host::BusSpec::pci());
    host::Host hostB(s, "b", host::CpuSpec::pentium120(),
                     host::BusSpec::pci());
    nic::Dc21140Spec tiny;
    tiny.txRingSize = 2;
    nic::Dc21140 nicA(hostA, sw, eth::MacAddress::fromIndex(1), tiny);
    nic::Dc21140 nicB(hostB, sw, eth::MacAddress::fromIndex(2));
    UdpStack stackA(hostA, nicA), stackB(hostB, nicB);

    int ok = 0, enobufs = 0;
    sim::Process rx(s, "rx", [&](sim::Process &self) {
        auto &sock = stackB.createSocket(&self, 7000);
        while (sock.recvFrom(self, 5_ms))
            ;
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto &sock = stackA.createSocket(&self, 5000);
        auto payload = pattern(1400);
        for (int i = 0; i < 8; ++i) {
            if (sock.sendTo(self, stackB.address(), 7000, payload))
                ++ok;
            else
                ++enobufs;
        }
    });
    rx.start();
    tx.start(1_us);
    s.run();

    EXPECT_GT(enobufs, 0);
    EXPECT_GT(ok, 0);
    EXPECT_EQ(s.metrics().value("host.a.sockets.udp.packetsSent"),
              static_cast<double>(ok));
    EXPECT_EQ(stackA.packetsSent(), static_cast<std::uint64_t>(ok));
}
