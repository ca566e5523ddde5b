/**
 * @file
 * Section 4.4's headline overheads, measured from the model:
 *
 *  - null trap on the Pentium-120 ("under 1 us");
 *  - U-Net/FE send processor overhead (~4.2 us) and total send
 *    overhead (~5.4 us);
 *  - U-Net/ATM host send overhead (~1.5 us), i960 send (~10 us) and
 *    receive (~13 us) overheads.
 */

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

namespace {

/** Host processor time consumed by one send call. */
double
sendProcessorOverheadUs(Fabric fabric)
{
    sim::Simulation s;
    RawPair rig(s, fabric);
    sim::Tick busy = -1;
    sim::Process echo(s, "echo", [](sim::Process &) {});
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        sim::Tick before = rig.hostOf(0).cpu().userTime();
        rawSend(rig.unetOf(0), self, rig.ep(0), rig.chan(0), 40, 16384,
                !rig.isAtm());
        busy = rig.hostOf(0).cpu().userTime() - before;
    });
    rig.wire(tx, echo);
    tx.start();
    s.run();
    return sim::toMicroseconds(busy);
}

/** Time from send() entry to the first bit on the wire — the paper's
 *  "total send overhead" (processor + device pipeline). */
double
totalSendOverheadUs(Fabric fabric)
{
    sim::Simulation s;
    RawPair rig(s, fabric);
    sim::Tick t0 = -1;
    sim::Process echo(s, "echo", [](sim::Process &) {});
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        t0 = s.now();
        rawSend(rig.unetOf(0), self, rig.ep(0), rig.chan(0), 40, 16384,
                !rig.isAtm());
    });
    rig.wire(tx, echo);
    tx.start();
    s.run();
    auto &fe = static_cast<UNetFe &>(rig.unetOf(0));
    return sim::toMicroseconds(fe.nic().lastTxWireStart() - t0);
}

/** i960 busy time for one send / one receive of a 40-byte message. */
std::pair<double, double>
i960OverheadsUs()
{
    sim::Simulation s;
    RawPair rig(s, Fabric::AtmOc3);
    sim::Process rx(s, "rx", [&](sim::Process &self) {
        RecvDescriptor rd;
        rig.ep(1).wait(self, rd, sim::seconds(1));
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        rawSend(rig.unetOf(0), self, rig.ep(0), rig.chan(0), 40, 16384);
    });
    rig.wire(tx, rx);
    rx.start();
    tx.start();
    s.run();
    auto &atm_a = static_cast<UNetAtm &>(rig.unetOf(0));
    auto &atm_b = static_cast<UNetAtm &>(rig.unetOf(1));
    return {sim::toMicroseconds(atm_a.nic().i960().busyTime()),
            sim::toMicroseconds(atm_b.nic().i960().busyTime())};
}

} // namespace

int
main(int argc, char **argv)
{
    noArguments(argc, argv, "overheads_table");
    std::printf("Section 4.4 overheads (40-byte message)\n");
    std::printf("%-44s %10s %10s\n", "metric", "paper", "measured");

    auto p120 = host::CpuSpec::pentium120();
    std::printf("%-44s %10s %9.2fus\n",
                "null trap (Pentium-120)", "<1 us",
                sim::toMicroseconds(p120.nullTrapCost()));

    std::printf("%-44s %10s %9.2fus\n",
                "U-Net/FE send processor overhead", "4.2 us",
                sendProcessorOverheadUs(Fabric::FeBay));
    std::printf("%-44s %10s %9.2fus\n",
                "U-Net/ATM host send overhead", "1.5 us",
                sendProcessorOverheadUs(Fabric::AtmOc3));

    auto [i960_tx, i960_rx] = i960OverheadsUs();
    std::printf("%-44s %10s %9.2fus\n", "i960 send overhead", "10 us",
                i960_tx);
    std::printf("%-44s %10s %9.2fus\n", "i960 receive overhead",
                "13 us", i960_rx);

    std::printf("%-44s %10s %9.2fus\n",
                "U-Net/FE total send (call-to-return)", "5.4 us",
                totalSendOverheadUs(Fabric::FeBay));
    std::printf("%-44s %10s %9.2fus\n",
                "U-Net/ATM total send (host+i960)", "11.5 us",
                sendProcessorOverheadUs(Fabric::AtmOc3) + i960_tx);
    return 0;
}
