/**
 * @file
 * The Split-C benchmark suite: Table 1, Table 2 and Figure 7, all
 * printed from one run of the 36-cell grid.
 *
 * The paper's six benchmarks — two matrix-multiply shapes and the
 * small/large-message variants of sample and radix sort — run on 2, 4
 * and 8 nodes of the two platforms: the Pentium/Fast-Ethernet cluster
 * (Bay 28115 switch) and the SPARC/ATM cluster (SBA-200 on 140 Mbps
 * TAXI through an ASX-200).
 *
 * - Table 1: execution times. Absolute numbers depend on 1996-era CPU
 *   throughput calibrations; the paper's qualitative claims are what
 *   it must reproduce: matrix multiply and the large-message sorts run
 *   faster on the ATM cluster (bandwidth + SPARC floating point); the
 *   small-message sorts run faster on Fast Ethernet (lower latency +
 *   Pentium integer).
 * - Table 2: speedup from 2 to 8 nodes. For matrix multiply the matrix
 *   size is constant, so the time drops with nodes; for the sorts the
 *   keys *per node* are constant, so total work grows and "speedup" is
 *   work-scaled: (time2 * (8 nodes work / 2 nodes work)) / time8 =
 *   4 * time2 / time8.
 * - Figure 7: execution times normalized to the 2-node ATM cluster,
 *   split into computation (cpu) and communication (net) parts.
 *
 * Default problem sizes are scaled down so the grid finishes in
 * seconds of host time; pass --full for the paper's 512 K keys per
 * node and 1024x1024 matrices. `--cell BENCHMARK NODES fe|atm [KEYS]`
 * runs one cell, for bisection; KEYS sets the keys per node, and the
 * Split-C heap grows with it.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/matmul.hh"
#include "apps/radix_sort.hh"
#include "apps/sample_sort.hh"
#include "bench/harness.hh"
#include "cluster/cluster.hh"

using namespace unet;
using namespace unet::bench;

namespace {

/** The six Table-1 rows. */
constexpr const char *benchmarks[] = {
    "mm 128x128", "mm 16x16", "ssort sm",
    "ssort lg",   "rsort sm", "rsort lg",
};

constexpr int nodeCounts[] = {2, 4, 8};

/** Result of one (benchmark, platform, nodes) cell. */
struct Cell
{
    double seconds = 0;    ///< execution time (simulated)
    double cpuSeconds = 0; ///< mean per-node computation time
    double netSeconds = 0; ///< mean per-node communication time
    bool verified = false;
    std::uint64_t eventsFired = 0; ///< DES work (diagnostics)
};

/** Problem sizes. */
struct Scale
{
    std::size_t keysPerNode = 4096;
    std::size_t mm128Block = 16; ///< paper: 128

    /** Split-C heap per node: 24 MiB, or 192 bytes per key when that is
     *  more (96 MiB at the paper's 512 Ki keys per node). */
    std::size_t
    heapBytes() const
    {
        return std::max<std::size_t>(24u * 1024 * 1024,
                                     keysPerNode * 192);
    }

    static Scale
    full()
    {
        Scale s;
        s.keysPerNode = 512 * 1024;
        s.mm128Block = 128;
        return s;
    }
};

/** Run one cell of Table 1. @p atm selects the platform. */
Cell
runCell(const std::string &name, bool atm, int nodes, const Scale &scale)
{
    sim::Simulation s;
    cluster::Config cfg = atm ? cluster::Config::atmSplitC(nodes)
                              : cluster::Config::feCluster(nodes);
    cfg.heapBytes = scale.heapBytes();
    // Watchdog: no scaled cell should take minutes of simulated time;
    // full-size problems get a generous ceiling.
    cfg.simTimeLimit = scale.keysPerNode > 100000 ? sim::seconds(600)
                                                  : sim::seconds(60);
    cluster::Cluster c(s, cfg);

    std::vector<bool> ok(static_cast<std::size_t>(nodes), false);

    auto body = [&](splitc::Runtime &rt, sim::Process &proc) {
        bool verified = false;
        if (name == "mm 128x128") {
            apps::MatmulConfig mc;
            mc.blocksPerSide = 8;
            mc.blockSize = scale.mm128Block;
            verified = apps::runMatmul(rt, proc, mc).verified;
        } else if (name == "mm 16x16") {
            verified = apps::runMatmul(rt, proc,
                                       apps::MatmulConfig::paper16())
                           .verified;
        } else if (name == "ssort sm" || name == "ssort lg") {
            apps::SampleConfig sc;
            sc.keysPerNode = scale.keysPerNode;
            sc.largeMessages = name == "ssort lg";
            verified = apps::runSampleSort(rt, proc, sc).verified;
        } else if (name == "rsort sm" || name == "rsort lg") {
            apps::RadixConfig rc;
            rc.keysPerNode = scale.keysPerNode;
            rc.largeMessages = name == "rsort lg";
            verified = apps::runRadixSort(rt, proc, rc).verified;
        }
        ok[static_cast<std::size_t>(rt.self())] = verified;
    };

    Cell result;
    result.seconds = sim::toSeconds(c.run(body));
    result.eventsFired = s.events().firedCount();
    result.verified = true;
    double cpu = 0, net = 0;
    for (int i = 0; i < nodes; ++i) {
        if (!ok[static_cast<std::size_t>(i)])
            result.verified = false;
        cpu += sim::toSeconds(c.runtime(i).profile().compute);
        net += sim::toSeconds(c.runtime(i).profile().comm);
    }
    result.cpuSeconds = cpu / nodes;
    result.netSeconds = net / nodes;
    return result;
}

/** One benchmark's row of the grid: [nodes index][atm]. */
using Row = std::array<std::array<Cell, 2>, std::size(nodeCounts)>;

} // namespace

int
main(int argc, char **argv)
{
    const char *usage = "splitc_suite [--full] "
                        "[--cell BENCHMARK NODES fe|atm [KEYS]]";
    bool full = false;
    const char *cell = nullptr;
    int cell_nodes = 0, cell_keys = 0;
    bool cell_atm = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--full")) {
            full = true;
        } else if (!std::strcmp(argv[i], "--cell")) {
            cell = flagValue(argc, argv, i, usage);
            if (std::find_if(std::begin(benchmarks), std::end(benchmarks),
                             [&](const char *b) {
                                 return !std::strcmp(b, cell);
                             }) == std::end(benchmarks))
                usageError(usage, "unknown benchmark", cell);
            cell_nodes = positiveArg(flagValue(argc, argv, i, usage),
                                     "NODES", usage);
            const char *platform = flagValue(argc, argv, i, usage);
            cell_atm = !std::strcmp(platform, "atm");
            if (!cell_atm && std::strcmp(platform, "fe"))
                usageError(usage, "unknown platform", platform);
            if (i + 1 < argc && argv[i + 1][0] != '-')
                cell_keys = positiveArg(argv[++i], "KEYS", usage);
        } else {
            usageError(usage, "unknown argument", argv[i]);
        }
    }
    Scale scale = full ? Scale::full() : Scale{};

    if (cell) {
        if (cell_keys)
            scale.keysPerNode = static_cast<std::size_t>(cell_keys);
        const char *platform = cell_atm ? "atm" : "fe";
        std::fprintf(stderr, "running cell %s %d %s...\n", cell,
                     cell_nodes, platform);
        Cell r = runCell(cell, cell_atm, cell_nodes, scale);
        std::printf("%s nodes=%d %s: %.3f s cpu=%.3f net=%.3f "
                    "events=%llu %s\n",
                    cell, cell_nodes, platform, r.seconds, r.cpuSeconds,
                    r.netSeconds,
                    static_cast<unsigned long long>(r.eventsFired),
                    r.verified ? "verified" : "FAILED");
        return r.verified ? 0 : 1;
    }

    // Table 1, simulating each cell as its row is printed.
    std::printf("Table 1: Split-C benchmark execution times "
                "(simulated seconds)%s\n",
                full ? " [paper-size problems]" : " [scaled problems]");
    std::printf("%-12s %9s %9s %9s %9s %9s %9s\n", "benchmark", "2 FE",
                "2 ATM", "4 FE", "4 ATM", "8 FE", "8 ATM");
    std::vector<Row> grid(std::size(benchmarks));
    for (std::size_t b = 0; b < std::size(benchmarks); ++b) {
        std::printf("%-12s", benchmarks[b]);
        for (std::size_t n = 0; n < std::size(nodeCounts); ++n) {
            for (bool atm : {false, true}) {
                Cell &r = grid[b][n][atm];
                r = runCell(benchmarks[b], atm, nodeCounts[n], scale);
                std::printf(" %8.3f%s", r.seconds,
                            r.verified ? "" : "!");
            }
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("\n('!' marks a run whose output failed "
                "verification)\n");
    std::printf("expected shape: mm rows faster on ATM; *sm rows "
                "faster on FE.\n");
    std::printf("the *lg rows are bandwidth-bound only at large key "
                "counts: the ATM win\nappears from ~128K keys/node "
                "(see --full / EXPERIMENTS.md).\n");

    // Table 2, from the 2- and 8-node cells.
    std::printf("Table 2: speedup from 2 to 8 nodes\n");
    std::printf("%-12s %9s %9s\n", "benchmark", "ATM", "FE");
    for (std::size_t b = 0; b < std::size(benchmarks); ++b) {
        bool scaled_work = std::strncmp(benchmarks[b], "mm", 2) != 0;
        double factor = scaled_work ? 4.0 : 1.0;
        std::printf("%-12s", benchmarks[b]);
        for (bool atm : {true, false})
            std::printf(" %9.2f", factor * grid[b][0][atm].seconds /
                                      grid[b][2][atm].seconds);
        std::printf("\n");
    }
    std::printf("\n(sorts keep keys/node constant: speedup is "
                "work-scaled by 4x)\n");

    // Figure 7, normalized to each benchmark's 2-node ATM cell.
    std::printf("Figure 7: relative execution times "
                "(normalized to 2-node ATM; cpu/net split)\n\n");
    for (std::size_t b = 0; b < std::size(benchmarks); ++b) {
        double baseline = grid[b][0][true].seconds;
        std::printf("%s  (baseline 2-node ATM = 1.00 = %.3f s)\n",
                    benchmarks[b], baseline);
        std::printf("  %-8s %8s %8s %8s %24s\n", "cluster", "rel", "cpu",
                    "net", "bar");
        for (std::size_t n = 0; n < std::size(nodeCounts); ++n) {
            for (bool atm : {true, false}) {
                const Cell &r = grid[b][n][atm];
                double rel = r.seconds / baseline;
                double cpu_rel = r.cpuSeconds / baseline;
                double net_rel = r.netSeconds / baseline;
                // ASCII bar: '#' for cpu, '.' for net, 20 chars = 1.0.
                std::string bar(
                    static_cast<std::size_t>(cpu_rel * 20 + 0.5), '#');
                bar += std::string(
                    static_cast<std::size_t>(net_rel * 20 + 0.5), '.');
                std::printf("  %d %-6s %8.2f %8.2f %8.2f %-24s\n",
                            nodeCounts[n], atm ? "ATM" : "FE", rel,
                            cpu_rel, net_rel, bar.c_str());
            }
        }
        std::printf("\n");
    }
    return 0;
}
