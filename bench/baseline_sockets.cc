/**
 * @file
 * Baseline: traditional kernel sockets vs U-Net on identical hardware.
 *
 * The motivation table the paper builds on: direct user-level access
 * cuts an order of magnitude from small-message round trips compared
 * to the in-kernel UDP path (syscalls, double copies, protocol
 * processing, scheduler wakeups) — the configuration the Beowulf
 * cluster in related work used.
 */

#include "bench/harness.hh"
#include "sockets/udp_stack.hh"

using namespace unet;
using namespace unet::bench;

namespace {

double
udpRoundTripUs(std::size_t size, int rounds = 8)
{
    sim::Simulation s;
    eth::Switch sw(s, eth::SwitchSpec::bay28115());
    host::Host host_a(s, "a", host::CpuSpec::pentium120(),
                      host::BusSpec::pci());
    host::Host host_b(s, "b", host::CpuSpec::pentium120(),
                      host::BusSpec::pci());
    nic::Dc21140 nic_a(host_a, sw, eth::MacAddress::fromIndex(1));
    nic::Dc21140 nic_b(host_b, sw, eth::MacAddress::fromIndex(2));
    sockets::UdpStack stack_a(host_a, nic_a);
    sockets::UdpStack stack_b(host_b, nic_b);

    double total = 0;
    int measured = 0;

    sim::Process echo(s, "echo", [&](sim::Process &self) {
        auto &sock = stack_b.createSocket(&self, 7000);
        for (int r = 0; r < rounds + 1; ++r) {
            auto dg = sock.recvFrom(self, sim::seconds(1));
            if (!dg)
                return;
            sock.sendTo(self, dg->srcMac, dg->srcPort, dg->data);
        }
    });
    sim::Process ping(s, "ping", [&](sim::Process &self) {
        auto &sock = stack_a.createSocket(&self, 5000);
        std::vector<std::uint8_t> payload(size, 0x5A);
        for (int r = 0; r < rounds + 1; ++r) {
            sim::Tick t0 = s.now();
            sock.sendTo(self, stack_b.address(), 7000, payload);
            if (!sock.recvFrom(self, sim::seconds(1)))
                return;
            if (r > 0) {
                total += sim::toMicroseconds(s.now() - t0);
                ++measured;
            }
        }
    });

    echo.start();
    ping.start(sim::microseconds(5));
    s.run();
    return measured ? total / measured : -1;
}

double
udpBandwidthMbps(std::size_t size, int messages = 300)
{
    sim::Simulation s;
    eth::Switch sw(s, eth::SwitchSpec::bay28115());
    host::Host host_a(s, "a", host::CpuSpec::pentium120(),
                      host::BusSpec::pci());
    host::Host host_b(s, "b", host::CpuSpec::pentium120(),
                      host::BusSpec::pci());
    nic::Dc21140 nic_a(host_a, sw, eth::MacAddress::fromIndex(1));
    nic::Dc21140 nic_b(host_b, sw, eth::MacAddress::fromIndex(2));
    sockets::UdpStack stack_a(host_a, nic_a);
    sockets::UdpStack stack_b(host_b, nic_b);

    sim::Tick first = -1, last = -1;
    int got = 0;

    sim::Process sink(s, "sink", [&](sim::Process &self) {
        auto &sock = stack_b.createSocket(&self, 7000);
        while (got < messages) {
            auto dg = sock.recvFrom(self, sim::milliseconds(100));
            if (!dg)
                return;
            if (first < 0)
                first = s.now();
            last = s.now();
            ++got;
        }
    });
    sim::Process source(s, "source", [&](sim::Process &self) {
        auto &sock = stack_a.createSocket(&self, 5000);
        std::vector<std::uint8_t> payload(size, 0x5A);
        for (int m = 0; m < messages; ++m) {
            while (!sock.sendTo(self, stack_b.address(), 7000,
                                payload))
                self.delay(sim::microseconds(50));
        }
    });

    sink.start();
    source.start(sim::microseconds(5));
    s.run();
    if (got < 2 || last <= first)
        return 0;
    return (got - 1) * size * 8.0 / sim::toSeconds(last - first) / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    noArguments(argc, argv, "baseline_sockets");
    std::printf("Baseline: kernel UDP sockets vs U-Net/FE "
                "(Pentium-120, Bay 28115 switch)\n\n");
    std::printf("Round-trip latency (us)\n");
    std::printf("%8s %10s %10s %8s\n", "bytes", "sockets", "U-Net",
                "ratio");
    for (std::size_t size : {8, 40, 128, 512, 1024, 1400}) {
        double udp = udpRoundTripUs(size);
        double un = roundTripUs(Fabric::FeBay, size);
        std::printf("%8zu %10.1f %10.1f %7.1fx\n", size, udp, un,
                    udp / un);
    }

    std::printf("\nOne-way bandwidth (Mbit/s)\n");
    std::printf("%8s %10s %10s %8s\n", "bytes", "sockets", "U-Net",
                "ratio");
    for (std::size_t size : {40, 128, 512, 1024, 1400}) {
        double udp = udpBandwidthMbps(size);
        double un = bandwidthMbps(Fabric::FeBay, size, 300);
        std::printf("%8zu %10.1f %10.1f %7.1fx\n", size, udp, un,
                    un / udp);
    }
    std::printf("\n(U-Net's case: \"to reduce send and receive "
                "overheads ... even with small message sizes\")\n");
    return 0;
}
