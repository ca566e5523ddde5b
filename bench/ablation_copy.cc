/**
 * @file
 * Ablation: the receive copy U-Net/FE cannot avoid.
 *
 * "The main benefit of the co-processor is to allow the network
 * interface to examine the packet header and DMA the data directly
 * into the correct user-space buffer, thereby eliminating a costly
 * copy." This bench turns the FE receive copy's cost off — modelling a
 * hypothetical header-splitting NIC — and reports latency and host
 * processor utilization.
 */

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

namespace {

/** Receiver kernel time consumed while sinking @p messages frames. */
double
rxKernelTimeUs(std::size_t size, bool charge_copy)
{
    RigOptions opts;
    opts.feSpec.chargeRxCopy = charge_copy;

    sim::Simulation s;
    RawPair rig(s, Fabric::FeBay, opts);
    const int messages = 50;
    int seen = 0;

    sim::Process sink(s, "sink", [&](sim::Process &self) {
        auto &un = rig.unetOf(1);
        auto &ep = rig.ep(1);
        postRecvBuffers(un, self, ep, 16);
        RecvDescriptor rd;
        while (seen < messages &&
               ep.wait(self, rd, sim::milliseconds(50))) {
            ++seen;
            recycleBuffers(un, self, ep, rd);
        }
    });
    sim::Process source(s, "source", [&](sim::Process &self) {
        auto &un = rig.unetOf(0);
        auto &ep = rig.ep(0);
        for (int m = 0; m < messages; ++m) {
            while (!rawSend(un, self, ep, rig.chan(0), size,
                            txSlot(ep, 16384, 2048, m))) {
                self.delay(sim::microseconds(20));
                un.flush(self, ep);
            }
        }
        un.flush(self, ep);
    });
    rig.wire(source, sink);
    sink.start();
    source.start(sim::microseconds(5));
    s.run();
    return sim::toMicroseconds(rig.hostOf(1).cpu().kernelTime()) /
        messages;
}

} // namespace

int
main(int argc, char **argv)
{
    noArguments(argc, argv, "ablation_copy");
    std::printf("Ablation: receive copy vs hypothetical zero-copy "
                "receive (U-Net/FE)\n\n");
    std::printf("%8s | %12s %12s | %14s %14s\n", "bytes", "RTT copy",
                "RTT nocopy", "rx-kern copy", "rx-kern nocopy");
    RigOptions nocopy;
    nocopy.feSpec.chargeRxCopy = false;
    for (std::size_t size : {100, 200, 400, 800, 1400}) {
        std::printf("%8zu | %10.1fus %10.1fus | %12.2fus %12.2fus\n",
                    size, roundTripUs(Fabric::FeBay, size),
                    roundTripUs(Fabric::FeBay, size, 8, nocopy),
                    rxKernelTimeUs(size, true),
                    rxKernelTimeUs(size, false));
    }
    std::printf("\n(per-message receiver kernel time is the paper's "
                "'processor utilization during message receive')\n");
    return 0;
}
