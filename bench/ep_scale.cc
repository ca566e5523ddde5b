/**
 * @file
 * Endpoint-virtualization scaling curve, 1 -> 10^6 endpoints.
 *
 * For each NIC and each hot-set capacity, sweep the total endpoint
 * count N over six decades and report the mean ping-pong round-trip
 * and the sender-NIC residency fault rate. min(N, 64) endpoints are
 * materialized and driven round-robin; the rest are cold
 * registrations in the sender's endpoint table. Two regimes anchor
 * the curve:
 *
 *  - working set <= hot set (H=256 column, or N <= H): fully
 *    resident, zero faults, and the round-trip must match today's
 *    fixed-endpoint fast path — the virtualization layer is free when
 *    a real NIC could have held the state;
 *
 *  - working set > hot set (H=16 column past N=16): round-robin is
 *    the LRU adversary, so every doorbell pages in and the round-trip
 *    carries the page-in/page-out costs.
 *
 * Emits unet-bench-v1 JSON for tools/bench_compare.py; ctest
 * (cli.ep_scale.baseline) fails if any row moves: a resident-path
 * latency change or a drift in the fault accounting.
 *
 * Usage: ep_scale [output.json]   (default BENCH_ep_scale.json)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/ep_scale.hh"

using namespace unet;
using namespace unet::bench;

int
main(int argc, char **argv)
{
    const char *out_path = outputPath(
        argc, argv, "ep_scale [output.json]", "BENCH_ep_scale.json");

    const std::size_t counts[] = {1,      10,      100,    1000,
                                  10000, 100000, 1000000};
    const std::size_t hots[] = {16, 256};

    std::vector<BenchRow> rows;

    for (Fabric fabric : {Fabric::FeBay, Fabric::AtmOc3}) {
        const char *nic = fabric == Fabric::FeBay ? "fe" : "atm";
        for (std::size_t hot : hots) {
            std::printf("%s hot-set %zu: endpoints, RTT us, "
                        "faults/s, evictions\n",
                        fabric == Fabric::FeBay ? "U-Net/FE"
                                                : "U-Net/ATM",
                        hot);
            for (std::size_t n : counts) {
                EpScaleResult r = runEpScale(fabric, n, hot);
                if (!r.ok) {
                    std::fprintf(stderr,
                                 "%s n=%zu h=%zu: measurement "
                                 "stalled\n",
                                 nic, n, hot);
                    return 1;
                }
                std::printf("%10zu %10.1f %12.0f %10llu\n", n,
                            r.rttUs, r.faultsPerSec,
                            static_cast<unsigned long long>(
                                r.evictions));
                std::string base = std::string(nic) + "_h" +
                    std::to_string(hot) + "_n" + std::to_string(n);
                rows.push_back({base + "_rtt_us", r.rttUs, "us"});
                rows.push_back({base + "_faults_per_sec",
                                r.faultsPerSec, "1/s"});
            }
        }
    }

    return writeBenchJson(out_path, rows) ? 0 : 1;
}
