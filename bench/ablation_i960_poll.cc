/**
 * @file
 * Ablation: i960 transmit-queue polling policy.
 *
 * The PCA-200 firmware polls each endpoint's transmit queue;
 * "endpoints with recent activity are polled more frequently given
 * that they are most likely to correspond to a running process." This
 * bench sweeps the active/idle poll latencies and shows their effect
 * on the single-cell round trip.
 */

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

int
main(int argc, char **argv)
{
    noArguments(argc, argv, "ablation_i960_poll");
    std::printf("Ablation: i960 TX poll latency vs 40-byte ATM round "
                "trip\n\n");
    std::printf("%14s %14s %12s\n", "active poll", "idle poll",
                "RTT (us)");
    const double actives[] = {0.5, 1.0, 2.0, 4.0};
    const double idles[] = {2.0, 6.0, 12.0, 24.0};
    for (double active : actives) {
        for (double idle : idles) {
            if (idle < active)
                continue;
            RigOptions opts;
            opts.pcaSpec.txPollActive = sim::microsecondsF(active);
            opts.pcaSpec.txPollIdle = sim::microsecondsF(idle);
            std::printf("%12.1fus %12.1fus %12.1f\n", active, idle,
                        roundTripUs(Fabric::AtmOc3, 40, 8, opts));
        }
    }
    std::printf("\n(weighted polling keeps the *idle* latency out of "
                "the critical path for busy endpoints)\n");

    // Show the weighting working: first send (idle poll) vs steady
    // state (active poll).
    RigOptions base;
    base.pcaSpec.txPollIdle = sim::microseconds(24);
    std::printf("\nwith a 24 us idle poll, steady-state RTT is still "
                "%.1f us\n",
                roundTripUs(Fabric::AtmOc3, 40, 8, base));
    return 0;
}
