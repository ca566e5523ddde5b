/**
 * @file
 * A Split-C parallel sort on a four-node cluster.
 *
 * Runs the paper's sample-sort benchmark (small-message variant) on a
 * 4-node Pentium/Fast-Ethernet cluster and the large-message variant
 * on a 4-node SPARC/ATM cluster — the head-to-head the paper's
 * Section 5 is about — and prints execution time, the cpu/net split,
 * and verification results. Exits 1 if any node's sort fails
 * verification.
 */

#include <cstdio>

#include "apps/sample_sort.hh"
#include "cluster/cluster.hh"

using namespace unet;
using namespace unet::cluster;

namespace {

/** @return true when every node's sort verified. */
bool
runOne(const char *title, Config cfg, bool large)
{
    sim::Simulation s;
    int nodes = cfg.nodes;
    Cluster c(s, std::move(cfg));

    apps::SampleConfig sort;
    sort.keysPerNode = 16384;
    sort.largeMessages = large;

    std::vector<apps::SampleStats> stats(
        static_cast<std::size_t>(nodes));
    sim::Tick elapsed =
        c.run([&](splitc::Runtime &rt, sim::Process &proc) {
            stats[static_cast<std::size_t>(rt.self())] =
                apps::runSampleSort(rt, proc, sort);
        });

    std::printf("%s (%s messages)\n", title, large ? "large" : "small");
    std::printf("  execution time: %.3f ms (simulated)\n",
                sim::toMilliseconds(elapsed));
    bool verified = true;
    for (int i = 0; i < nodes; ++i) {
        auto &p = c.runtime(i).profile();
        auto &st = stats[static_cast<std::size_t>(i)];
        std::printf("  node %d: %6llu keys, cpu %.3f ms, net %.3f ms, "
                    "%s\n",
                    i,
                    static_cast<unsigned long long>(st.keysHeld),
                    sim::toMilliseconds(p.compute),
                    sim::toMilliseconds(p.comm),
                    st.verified ? "verified" : "FAILED");
        verified = verified && st.verified;
    }
    std::printf("\n");
    return verified;
}

} // namespace

int
main()
{
    std::printf("Sample sort, 16K keys per node, 4 nodes\n\n");
    bool fe = runOne("Pentium cluster / Fast Ethernet (Bay 28115)",
                     Config::feCluster(4), false);
    bool atm = runOne("SPARC cluster / ATM (ASX-200, TAXI-140)",
                      Config::atmSplitC(4), true);
    return fe && atm ? 0 : 1;
}
