/**
 * @file
 * perfbench: runs one pass of one workload and prints its record as one
 * JSON line.
 *
 *   perfbench --workload NAME --seed N [--mode plain|profile|trace]
 *             [--smoke]
 *
 * run.py runs the passes and turns the records into metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace {

struct Usage
{
    double user = 0, sys = 0;
    long minflt = 0, maxrssKb = 0;

    static Usage
    now()
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        auto secs = [](const timeval &tv) {
            return static_cast<double>(tv.tv_sec) +
                   static_cast<double>(tv.tv_usec) * 1e-6;
        };
        return {secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_minflt,
                ru.ru_maxrss};
    }
};

/** Minimal JSON object writer for flat records. */
class Json
{
  public:
    Json() { out = "{"; }

    Json &
    key(const std::string &k)
    {
        if (out.size() > 1)
            out += ", ";
        out += quote(k) + ": ";
        return *this;
    }

    Json &
    num(const std::string &k, double v)
    {
        key(k);
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        out += buf;
        return *this;
    }

    Json &
    str(const std::string &k, const std::string &v)
    {
        key(k);
        out += quote(v);
        return *this;
    }

    Json &
    raw(const std::string &k, const std::string &v)
    {
        key(k);
        out += v;
        return *this;
    }

    std::string done() const { return out + "}"; }

    static std::string
    quote(const std::string &s)
    {
        std::string q = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c >= 0x20 ? c : ' ';
        }
        return q + "\"";
    }

  private:
    std::string out;
};

std::string
numbers(const std::map<std::string, double> &m)
{
    Json j;
    for (const auto &[k, v] : m)
        j.num(k, v);
    return j.done();
}

/** Linear-interpolated quantile of @p xs (sorted in place). */
double
quantile(std::vector<double> &xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

std::string
custodyRecord(Custody &c)
{
    Json kinds;
    for (auto &[kind, ns] : c.durationsNs) {
        Json k;
        k.num("n", static_cast<double>(ns.size()));
        k.num("p50_us", quantile(ns, 0.50) / 1000.0);
        k.num("p99_us", quantile(ns, 0.99) / 1000.0);
        kinds.raw(kind, k.done());
    }
    Json j;
    j.raw("kinds", kinds.done());
    j.num("messages", static_cast<double>(c.messages));
    j.num("untiled", static_cast<double>(c.untiled));
    j.num("dropped", static_cast<double>(c.dropped));
    j.num("rounds", static_cast<double>(c.rounds));
    j.num("round_mismatches", static_cast<double>(c.roundMismatches));
    return j.done();
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench "
                 "--workload serve_incast|serve_sweep|splitc_rsort|rawnet "
                 "--seed N [--mode plain|profile|trace] [--smoke]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, modeName = "plain";
    std::uint64_t seed = 1;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool hasValue = i + 1 < argc;
        if (a == "--smoke")
            smoke = true;
        else if (!hasValue)
            return usage(("missing value for " + a).c_str());
        else if (a == "--workload")
            workload = argv[++i];
        else if (a == "--seed")
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--mode")
            modeName = argv[++i];
        else
            return usage(("unknown argument " + a).c_str());
    }

    Workload run = nullptr;
    if (workload == "serve_incast")
        run = serveIncast;
    else if (workload == "serve_sweep")
        run = serveSweep;
    else if (workload == "splitc_rsort")
        run = splitcRsort;
    else if (workload == "rawnet")
        run = rawnet;
    else
        return usage(("unknown workload '" + workload + "'").c_str());

    Mode mode;
    if (modeName == "plain")
        mode = Mode::Plain;
    else if (modeName == "profile")
        mode = Mode::Profile;
    else if (modeName == "trace" && UNET_TRACE)
        mode = Mode::Trace;
    else
        return usage(("mode '" + modeName + "' unavailable in this build")
                         .c_str());

    const Scale scale = smoke ? Scale::smoke() : Scale{};
    Pass pass;
    Usage u0 = Usage::now();
    {
        Probe probe(mode, pass);
        run(seed, scale, probe);
    }
    Usage u1 = Usage::now();

    Json failures;
    for (std::size_t f = 0; f < pass.failures.size(); ++f)
        failures.str(std::to_string(f), pass.failures[f]);
    auto hex = [](std::uint64_t v) {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
        return std::string(buf);
    };
    Json points;
    for (const auto &[name, d] : pass.pointDigests)
        points.str(name, hex(d));

    Json rec;
    rec.str("workload", workload).str("mode", modeName);
    rec.num("seed", static_cast<double>(seed));
    rec.num("setup_s", pass.setupS).num("run_s", pass.runS);
    rec.num("teardown_s", pass.teardownS);
    rec.num("wall_s", pass.setupS + pass.runS + pass.teardownS);
    rec.num("sim_s", pass.simS);
    rec.num("attempted", static_cast<double>(pass.attempted));
    rec.num("failed", static_cast<double>(pass.failed));
    rec.raw("failures", failures.done());
    rec.str("digest", hex(pass.digest.value()));
    rec.raw("point_digests", points.done());
    rec.num("events", static_cast<double>(pass.events));
    rec.num("heap_callable_allocs",
            static_cast<double>(pass.heapCallableAllocs));
    rec.num("compactions", static_cast<double>(pass.compactions));
    rec.num("pool_records", static_cast<double>(pass.poolRecords));
    rec.num("user_s", u1.user - u0.user).num("sys_s", u1.sys - u0.sys);
    rec.num("minflt", static_cast<double>(u1.minflt - u0.minflt));
    rec.num("fire_s", pass.host.fireS).num("fiber_s", pass.host.fiberS);
    rec.num("fiber_resumes", static_cast<double>(pass.host.resumes));
    rec.raw("outputs", numbers(pass.outputs));
    rec.raw("layers", numbers(pass.layers));
    rec.raw("custody", custodyRecord(pass.custody));
    rec.num("max_rss_mb", static_cast<double>(u1.maxrssKb) / 1024.0);
    std::printf("%s\n", rec.done().c_str());
    return 0;
}
