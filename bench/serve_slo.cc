/**
 * @file
 * SLO-vs-load curves for the AM serving plane.
 *
 * Sweeps offered load (as a fraction of the server's mean service
 * capacity) across fan-in levels for both NICs, open- and closed-loop,
 * clean and under Gilbert-Elliott burst loss at the switch, and
 * publishes p50/p99/p999 end-to-end latency, goodput, and
 * SLO-violation rate per point.
 *
 *   serve_slo [BENCH_JSON] [--full] [--curves FILE]
 *
 * BENCH_JSON (default BENCH_serve_slo.json) gets the unet-bench-v1
 * gate rows; --curves writes the full curve set (every point, plus its
 * metrics digest) for artifact upload and cross-salt byte comparison;
 * --full widens the sweep to paper-size fan-in and load grids. An
 * unknown flag, a second BENCH_JSON or a --curves without its FILE
 * exits 2.
 *
 * Everything is simulated time: the numbers are deterministic
 * functions of the seed and must be byte-identical across
 * UNET_PERTURB salts.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "obs/digest.hh"
#include "serve/rig.hh"

using namespace unet;

namespace {

/**
 * Measured single-server saturation throughput (requests/s), which the
 * NIC message path sets, not the 6us CPU service time: each request
 * costs the server NIC one inbound request, one outbound reply, and
 * (~once per request at serving rates) an inbound delayed ACK. The
 * PCA-200's i960 reassembles/delivers one message per ~10-13us, capping
 * ATM near 28k req/s; the FE kernel path is leaner and saturates near
 * 55k. The load axis is expressed as utilization of these calibrated
 * capacities so "u80" sits at the same queueing intensity on both NICs.
 */
constexpr double kCapacityFeRps = 55000.0;
constexpr double kCapacityAtmRps = 28000.0;

double
capacityRps(serve::NicKind nic)
{
    return nic == serve::NicKind::Fe ? kCapacityFeRps
                                     : kCapacityAtmRps;
}

/** One measured point of the curve set. */
struct Point
{
    std::string name;     ///< bench-row stem, e.g. "fe_c64_u50"
    const char *nic;      ///< "FE" / "ATM"
    int clients;
    const char *mode;     ///< "open" / "closed"
    const char *scenario; ///< "clean" / "burst-loss"
    double offeredRps;    ///< 0 for closed loop
    serve::RunResult r;
    std::uint64_t digest; ///< metrics digest of the whole run
};

serve::RigSpec
rigFor(serve::NicKind nic, int clients, bool loss)
{
    serve::RigSpec spec;
    spec.nic = nic;
    spec.clients = clients;
    spec.seed = 1;
    spec.slo = sim::microseconds(400);
    if (loss) {
        // Bursty two-state loss at the switch: ~2.4% steady-state in
        // the bad state, bursts a few units long, both directions.
        spec.faults = nic == serve::NicKind::Fe
                          ? "seed=11 eth.switch.ge=0.005/0.2/0.8"
                          : "seed=11 atm.switch.ge=0.005/0.2/0.8";
    }
    return spec;
}

Point
runOpen(serve::NicKind nic, int clients, double utilization, bool loss,
        int totalRequests)
{
    double offered = utilization * capacityRps(nic);
    serve::Workload w;
    w.requestsPerClient =
        std::max(8, totalRequests / std::max(clients, 1));
    w.meanGap = static_cast<sim::Tick>(
        static_cast<double>(clients) * 1e12 / offered);

    serve::ServeRig rig(rigFor(nic, clients, loss));
    Point p;
    p.nic = serve::nicName(nic);
    p.clients = clients;
    p.mode = "open";
    p.scenario = loss ? "burst-loss" : "clean";
    p.offeredRps = offered;
    p.name = std::string(nic == serve::NicKind::Fe ? "fe" : "atm") +
             "_c" + std::to_string(clients) + "_u" +
             std::to_string(static_cast<int>(utilization * 100)) +
             (loss ? "_loss" : "");
    p.r = rig.run(w);
    p.digest = obs::digestOf(rig.metrics());
    return p;
}

Point
runClosed(serve::NicKind nic, int clients, int window,
          sim::Tick meanThink, bool loss, int totalRequests)
{
    serve::Workload w;
    w.closedLoop = true;
    w.window = window;
    w.meanThink = meanThink;
    w.requestsPerClient =
        std::max(8, totalRequests / std::max(clients, 1));

    serve::ServeRig rig(rigFor(nic, clients, loss));
    Point p;
    p.nic = serve::nicName(nic);
    p.clients = clients;
    p.mode = "closed";
    p.scenario = loss ? "burst-loss" : "clean";
    p.offeredRps = 0.0;
    p.name = std::string(nic == serve::NicKind::Fe ? "fe" : "atm") +
             "_c" + std::to_string(clients) + "_closed_w" +
             std::to_string(window) + (loss ? "_loss" : "");
    p.r = rig.run(w);
    p.digest = obs::digestOf(rig.metrics());
    return p;
}

void
printPoint(const Point &p)
{
    std::printf("%-18s %-4s %5d %-7s %-10s %9.0f %9.0f %8.1f %8.1f "
                "%8.1f %6.3f %5llu %5llu\n",
                p.name.c_str(), p.nic, p.clients, p.mode, p.scenario,
                p.offeredRps, p.r.goodputRps, p.r.p50Us, p.r.p99Us,
                p.r.p999Us, p.r.sloViolationRate,
                static_cast<unsigned long long>(p.r.clientRetransmits +
                                                p.r.serverRetransmits),
                static_cast<unsigned long long>(
                    p.r.serverRxQueueDrops));
}

} // namespace

int
main(int argc, char **argv)
{
    const char *usage = "serve_slo [BENCH_JSON] [--full] [--curves FILE]";
    const char *out_path = nullptr;
    const char *curves_path = nullptr;
    bool full = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0)
            full = true;
        else if (std::strcmp(argv[i], "--curves") == 0)
            curves_path = bench::flagValue(argc, argv, i, usage);
        else if (argv[i][0] == '-' || out_path)
            bench::usageError(usage, "unknown argument", argv[i]);
        else
            out_path = argv[i];
    }
    if (!out_path)
        out_path = "BENCH_serve_slo.json";

    const int total = full ? 4000 : 1200;
    const std::vector<int> fanins =
        full ? std::vector<int>{4, 16, 64, 128}
             : std::vector<int>{4, 16, 64};
    const std::vector<double> utils =
        full ? std::vector<double>{0.1, 0.2, 0.35, 0.5, 0.65, 0.8,
                                   0.95}
             : std::vector<double>{0.2, 0.5, 0.8};

    std::printf("%-18s %-4s %5s %-7s %-10s %9s %9s %8s %8s %8s %6s "
                "%5s %5s\n",
                "point", "nic", "cli", "mode", "scenario", "offered",
                "goodput", "p50us", "p99us", "p999us", "sloV", "retx",
                "drops");

    std::vector<Point> points;
    for (serve::NicKind nic :
         {serve::NicKind::Fe, serve::NicKind::Atm}) {
        for (int clients : fanins)
            for (double u : utils) {
                points.push_back(runOpen(nic, clients, u, false,
                                         total));
                printPoint(points.back());
            }
        // Closed loop: self-throttling fan-in at zero think and a
        // moderate window approximates peak sustainable load.
        points.push_back(runClosed(nic, 16, 2,
                                   sim::microseconds(50), false,
                                   total));
        printPoint(points.back());
        // Incast under burst loss: the retransmit path shapes the
        // tail.
        points.push_back(runOpen(nic, 64, 0.5, true, total));
        printPoint(points.back());
    }

    bool sound = true;
    for (const Point &p : points) {
        if (!p.r.finished) {
            std::fprintf(stderr, "point %s did not quiesce\n",
                         p.name.c_str());
            sound = false;
        }
        if (p.r.completed + p.r.giveUps != p.r.issued) {
            std::fprintf(stderr,
                         "point %s: issued %llu != completed %llu + "
                         "giveUps %llu\n",
                         p.name.c_str(),
                         static_cast<unsigned long long>(p.r.issued),
                         static_cast<unsigned long long>(
                             p.r.completed),
                         static_cast<unsigned long long>(p.r.giveUps));
            sound = false;
        }
    }
    if (!sound)
        return 1;

    // Gate rows: every point's latency quantiles (lower is better)
    // and goodput (higher is better).
    std::vector<bench::BenchRow> rows;
    for (const Point &p : points) {
        rows.push_back({p.name + "_p50_us", p.r.p50Us, "us"});
        rows.push_back({p.name + "_p99_us", p.r.p99Us, "us"});
        rows.push_back({p.name + "_p999_us", p.r.p999Us, "us"});
        rows.push_back(
            {p.name + "_goodput_rps", p.r.goodputRps, "rps", false, 0});
    }
    if (!bench::writeBenchJson(out_path, rows))
        return 1;

    if (curves_path) {
        std::FILE *cf = std::fopen(curves_path, "w");
        if (!cf) {
            std::fprintf(stderr, "cannot write %s\n", curves_path);
            return 1;
        }
        std::fprintf(cf, "{\n  \"format\": \"unet-serve-curves-v1\",\n"
                         "  \"points\": [\n");
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Point &p = points[i];
            std::fprintf(
                cf,
                "    {\"name\": \"%s\", \"nic\": \"%s\", "
                "\"clients\": %d, \"mode\": \"%s\", "
                "\"scenario\": \"%s\", \"offered_rps\": %.0f, "
                "\"goodput_rps\": %.1f, \"p50_us\": %.2f, "
                "\"p99_us\": %.2f, \"p999_us\": %.2f, "
                "\"slo_violation_rate\": %.5f, \"issued\": %" PRIu64
                ", \"completed\": %" PRIu64 ", \"issued_late\": %" PRIu64
                ", \"dup_responses\": %" PRIu64 ", \"give_ups\": %" PRIu64
                ", \"retransmits\": %" PRIu64 ", \"rx_drops\": %" PRIu64
                ", \"metrics_digest\": \"%016" PRIx64 "\"}%s\n",
                p.name.c_str(), p.nic, p.clients, p.mode, p.scenario,
                p.offeredRps, p.r.goodputRps, p.r.p50Us, p.r.p99Us,
                p.r.p999Us, p.r.sloViolationRate, p.r.issued,
                p.r.completed, p.r.issuedLate, p.r.dupResponses,
                p.r.giveUps,
                p.r.clientRetransmits + p.r.serverRetransmits,
                p.r.serverRxQueueDrops, p.digest,
                i + 1 < points.size() ? "," : "");
        }
        std::fprintf(cf, "  ]\n}\n");
        std::fclose(cf);
        std::printf("wrote %s\n", curves_path);
    }
    return 0;
}
