/**
 * @file
 * Shared rigs for the paper-reproduction benches.
 *
 * These harnesses measure *simulated* time: they print the same rows
 * and series the paper's figures and tables report, regenerated from
 * the model.
 */

#ifndef UNET_BENCH_HARNESS_HH
#define UNET_BENCH_HARNESS_HH

#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/digest.hh"
#include "obs/export.hh"
#include "topo/topo.hh"

namespace unet::bench {

/**
 * A bad command line exits 2 with a diagnostic and the usage line, so
 * a mistyped flag cannot run something other than what was asked.
 */
[[noreturn]] inline void
usageError(const char *usage, const char *what, const char *arg)
{
    std::fprintf(stderr, "%s '%s'\nusage: %s\n", what, arg, usage);
    std::exit(2);
}

/** The value after the flag argv[i], advancing i past it. A missing
 *  value, or another flag in its place, is a usage error. */
inline const char *
flagValue(int argc, char **argv, int &i, const char *usage)
{
    if (i + 1 >= argc || !std::strncmp(argv[i + 1], "--", 2))
        usageError(usage, "missing value for", argv[i]);
    return argv[++i];
}

/** @p value as a positive int; anything else is a usage error naming
 *  @p what. */
inline int
positiveArg(const char *value, const char *what, const char *usage)
{
    char *end = nullptr;
    long n = std::strtol(value, &end, 10);
    if (end == value || *end || n < 1 || n > INT_MAX) {
        std::string msg = what;
        msg += " wants a positive integer, got";
        usageError(usage, msg.c_str(), value);
    }
    return static_cast<int>(n);
}

/** A bench that takes no arguments rejects any. */
inline void
noArguments(int argc, char **argv, const char *usage)
{
    if (argc > 1)
        usageError(usage, "unknown argument", argv[1]);
}

/** The one optional positional output path of a JSON-writing bench,
 *  else @p fallback. A flag or a second path is a usage error, so
 *  nothing gets written under a mistyped flag's name. */
inline const char *
outputPath(int argc, char **argv, const char *usage, const char *fallback)
{
    if (argc > 1 && argv[1][0] == '-')
        usageError(usage, "unknown argument", argv[1]);
    if (argc > 2)
        usageError(usage, "unexpected argument", argv[2]);
    return argc > 1 ? argv[1] : fallback;
}

/**
 * Observability outputs shared by the figure benches: `--trace FILE`
 * writes a Perfetto trace_event JSON of the run's TraceSession,
 * `--metrics FILE` a flat JSON snapshot of the metrics registry.
 */
struct ObsOutputs
{
    const char *tracePath = nullptr;
    const char *metricsPath = nullptr;

    /** Take argv[i] (and its value) if it is one of these flags. */
    bool
    parse(int argc, char **argv, int &i, const char *usage)
    {
        if (!std::strcmp(argv[i], "--trace"))
            tracePath = flagValue(argc, argv, i, usage);
        else if (!std::strcmp(argv[i], "--metrics"))
            metricsPath = flagValue(argc, argv, i, usage);
        else
            return false;
        return true;
    }

    /** A bench whose only flags are these. */
    static ObsOutputs
    only(int argc, char **argv, const char *usage)
    {
        ObsOutputs outs;
        for (int i = 1; i < argc; ++i)
            if (!outs.parse(argc, argv, i, usage))
                usageError(usage, "unknown argument", argv[i]);
        return outs;
    }

    bool requested() const { return tracePath || metricsPath; }

    /** Write whatever was requested; call after run(), before
     *  teardown. */
    void
    write(sim::Simulation &s) const
    {
        if (tracePath) {
#if UNET_TRACE
            if (auto *tr = s.trace()) {
                std::ofstream os(tracePath);
                obs::writePerfettoJson(os, *tr);
                std::printf("# trace: %zu spans -> %s\n", tr->size(),
                            tracePath);
            } else {
                std::printf("# --trace: no trace session enabled\n");
            }
#else
            std::printf("# --trace: tracing compiled out; rebuild with "
                        "-DUNET_TRACE=ON\n");
#endif
        }
        if (metricsPath) {
            std::ofstream os(metricsPath);
            s.metrics().writeJson(os);
            std::printf("# metrics -> %s\n", metricsPath);
        }
    }
};

/** Fabric selection for the raw (non-Split-C) rigs. */
enum class Fabric { FeHub, FeBay, FeFn100, AtmOc3, AtmTaxi };

inline const char *
fabricName(Fabric f)
{
    switch (f) {
      case Fabric::FeHub:
        return "FE hub";
      case Fabric::FeBay:
        return "FE Bay28115";
      case Fabric::FeFn100:
        return "FE FN100";
      case Fabric::AtmOc3:
        return "ATM OC-3c";
      case Fabric::AtmTaxi:
        return "ATM TAXI-140";
    }
    return "?";
}

/** Spec overrides for ablation rigs. */
struct RigOptions
{
    UNetFeSpec feSpec;
    nic::Pca200Spec pcaSpec;
    /** The Bay 28115 of Fabric::FeBay. */
    eth::SwitchSpec switchSpec = eth::SwitchSpec::bay28115();
};

/**
 * Two nodes, "A" and "B", on a chosen fabric with raw U-Net endpoints
 * — the rig for the Fig. 5 round-trip and Fig. 6 bandwidth
 * measurements.
 *
 * Processes are created by the caller (they own the endpoints); wire()
 * connects them after construction.
 */
class RawPair
{
  public:
    RawPair(sim::Simulation &s, Fabric fabric, RigOptions opts = {})
        : net(s, fabricKind(fabric),
              fabric == Fabric::FeFn100 ? eth::SwitchSpec::fn100()
                                        : opts.switchSpec)
    {
        topo::NodeSpec node;
        node.fe = opts.feSpec;
        node.pca = opts.pcaSpec;
        node.link = fabric == Fabric::AtmTaxi ? atm::LinkSpec::taxi140()
                                              : atm::LinkSpec::oc3();
        net.add("A", node);
        net.add("B", node);
    }

    /** Create endpoints owned by the given processes and connect. */
    void
    wire(sim::Process &proc_a, sim::Process &proc_b,
         EndpointConfig cfg = {})
    {
        epA = &net.unet(0).createEndpoint(&proc_a, cfg);
        epB = &net.unet(1).createEndpoint(&proc_b, cfg);
        net.connect(0, *epA, 1, *epB, chanA, chanB);
    }

    /**
     * Arm @p plan on every custody boundary this rig has, node A's
     * sites suffixed ".a" and node B's ".b" (nic.fe.rx.a,
     * atm.link.b.0, ...). The plan must be declared *after* the
     * Simulation: armed injectors register metrics and must die first.
     */
    void
    attachFaults(fault::Plan &plan)
    {
        net.attachFaults(plan, {".a", ".b"});
    }

    /**
     * Connect two caller-created endpoints (A-side @p ep_a to B-side
     * @p ep_b) over the rig's fabric — the multi-endpoint analogue of
     * wire() for rigs that open more than one endpoint per host.
     */
    void
    connectExtra(Endpoint &ep_a, Endpoint &ep_b, ChannelId &chan_a,
                 ChannelId &chan_b)
    {
        net.connect(0, ep_a, 1, ep_b, chan_a, chan_b);
    }

    /** The given side's NIC endpoint-residency cache. */
    vep::ResidencyCache &residency(int side) { return net.residency(side); }

    UNet &unetOf(int side) { return net.unet(side); }
    Endpoint &ep(int side) { return side ? *epB : *epA; }
    ChannelId chan(int side) const { return side ? chanB : chanA; }
    host::Host &hostOf(int side) { return net.host(side); }

    bool isAtm() const { return net.isAtm(); }

  private:
    static topo::FabricKind
    fabricKind(Fabric fabric)
    {
        if (fabric == Fabric::FeHub)
            return topo::FabricKind::Hub;
        return fabric == Fabric::FeBay || fabric == Fabric::FeFn100
                   ? topo::FabricKind::Switch
                   : topo::FabricKind::Atm;
    }

    topo::Net net;
    Endpoint *epA = nullptr;
    Endpoint *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
};

/**
 * One raw U-Net message of @p size bytes: inline when it fits, else
 * one buffer-area fragment at @p tx_buf_offset.
 *
 * @p force_fragment keeps the send on the zero-copy buffer-area path
 * even for small messages — the only TX path the paper's U-Net/FE
 * has (inline sends are a U-Net/ATM single-cell feature).
 */
inline SendDescriptor
rawDescriptor(const UNet &un, ChannelId chan, std::size_t size,
              std::uint32_t tx_buf_offset, bool force_fragment)
{
    // inlineMax() never exceeds smallMessageMax; the explicit bound
    // lets the compiler see the span stays inside zeros.
    static constexpr std::array<std::uint8_t, smallMessageMax> zeros{};
    if (size <= un.inlineMax() && size <= zeros.size() && !force_fragment)
        return inlineSend(chan, std::span(zeros).first(size));
    return fragmentSend(chan, {tx_buf_offset,
                               static_cast<std::uint32_t>(size)});
}

/** Compose (rawDescriptor()) and post one raw U-Net message. */
inline bool
rawSend(UNet &un, sim::Process &proc, Endpoint &ep, ChannelId chan,
        std::size_t size, std::uint32_t tx_buf_offset,
        bool force_fragment = false)
{
    return un.send(proc, ep,
                   rawDescriptor(un, chan, size, tx_buf_offset,
                                 force_fragment));
}

/**
 * Buffer-area offset of the TX buffer for message @p m of a stream:
 * @p first, then one @p stride-byte slot per message, wrapping at the
 * end of @p ep's buffer area. A buffer may not be re-posted while a
 * send from it is in flight (zero-copy contract), so the area past
 * @p first must hold more slots than sends can be outstanding.
 */
inline std::uint32_t
txSlot(Endpoint &ep, std::uint32_t first, std::uint32_t stride, int m)
{
    const auto slots =
        static_cast<std::uint32_t>((ep.buffers().size() - first) / stride);
    return first + static_cast<std::uint32_t>(m) % slots * stride;
}

/** Post @p n 2 KB receive buffers from the start of @p ep's buffer
 *  area. */
inline void
postRecvBuffers(UNet &un, sim::Process &proc, Endpoint &ep, int n)
{
    for (int i = 0; i < n; ++i)
        un.postFree(proc, ep, {static_cast<std::uint32_t>(i * 2048), 2048});
}

/** Hand the 2 KB buffers message @p rd landed in back to @p ep. */
inline void
recycleBuffers(UNet &un, sim::Process &proc, Endpoint &ep,
               const RecvDescriptor &rd)
{
    if (!rd.isSmall)
        for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
            un.postFree(proc, ep, {rd.buffers[i].offset, 2048});
}

/**
 * Measure the user-level round-trip time for @p size-byte messages
 * over @p fabric: the mean over @p rounds after one warmup round.
 *
 * @p traced enables a TraceSession and stamps custody so that the
 * spans of every measured round tile the round-trip interval exactly:
 * each side back-dates the next message's context to the instant the
 * previous custody ended (the measurement start for the first hop, the
 * receive-queue pop for the echo), recording the application
 * turnaround as an App span. The per-round custody durations therefore
 * sum to the measured RTT (tools/trace_report.py checks this).
 *
 * @p after runs before teardown with the live simulation (trace ring
 * and metrics intact) and the measured mean RTT in microseconds.
 */
inline double
roundTripUs(
    Fabric fabric, std::size_t size, int rounds = 8, RigOptions opts = {},
    bool traced = false,
    const std::function<void(sim::Simulation &, double)> &after = {})
{
    sim::Simulation s;
    if (traced)
        s.enableTrace();
    RawPair rig(s, fabric, opts);

    double total_us = 0;
    int measured = 0;

    // Compose and post one message from @p side. A traced run first
    // opens its custody at @p handoff and records the application
    // turnaround up to the post, so TxPost starts at the post.
    auto send = [&](sim::Process &self, int side,
                    [[maybe_unused]] sim::Tick handoff) {
        auto &un = rig.unetOf(side);
        auto &ep = rig.ep(side);
        SendDescriptor sd =
            rawDescriptor(un, rig.chan(side), size, 16384, !rig.isAtm());
#if UNET_TRACE
        if (auto *tr = s.trace()) {
            tr->begin(sd.trace, handoff);
            tr->hop(sd.trace, obs::SpanKind::App,
                    side ? "B.app" : "A.app", s.now());
        }
#endif
        un.send(self, ep, sd);
        un.flush(self, ep);
    };

    sim::Process echo(s, "echo", [&](sim::Process &self) {
        auto &un = rig.unetOf(1);
        auto &ep = rig.ep(1);
        // Receive buffers for the non-inline path.
        postRecvBuffers(un, self, ep, 8);
        auto &cpu = rig.hostOf(1).cpu();
        RecvDescriptor rd;
        for (int r = 0; r < rounds + 1; ++r) {
            if (!ep.wait(self, rd, sim::seconds(1)))
                return;
            sim::Tick consumed = s.now();
            // The application examines the message and composes the
            // reply in its buffer area: two real memcpys.
            cpu.busy(self, cpu.spec().memcpyTime(size));
            recycleBuffers(un, self, ep, rd);
            cpu.busy(self, cpu.spec().memcpyTime(size));
            send(self, 1, consumed);
        }
    });

    sim::Process ping(s, "ping", [&](sim::Process &self) {
        auto &un = rig.unetOf(0);
        auto &ep = rig.ep(0);
        postRecvBuffers(un, self, ep, 8);
        auto &cpu = rig.hostOf(0).cpu();
        RecvDescriptor rd;
        for (int r = 0; r < rounds + 1; ++r) {
            sim::Tick t0 = s.now();
            // Compose the message in the buffer area.
            cpu.busy(self, cpu.spec().memcpyTime(size));
            send(self, 0, t0);
            if (!ep.wait(self, rd, sim::seconds(1)))
                return;
            // A traced round ends at the pop, where the reply's
            // RxQueue span ends; an untraced one after the buffers are
            // recycled, where the paper anchors are pinned.
            sim::Tick popped = s.now();
            recycleBuffers(un, self, ep, rd);
            if (r > 0) { // skip warmup
                total_us += sim::toMicroseconds(
                    (traced ? popped : s.now()) - t0);
                ++measured;
            }
        }
    });

    rig.wire(ping, echo);
    echo.start();
    ping.start(sim::microseconds(5));
    s.run();

    double mean = measured ? total_us / measured : -1.0;
    if (after)
        after(s, mean);
    return mean;
}

/** What replyArrivals() observed. */
struct ReplyRun
{
    /** The tick of every reply's arrival at the ping side. */
    std::vector<sim::Tick> arrivals;
    /** The arrivals, the final time, the fired-event count and the
     *  whole metrics registry, folded into one word. */
    std::uint64_t digest = 0;
};

/** Posts one message: the send step of replyArrivals(). */
using PostStep = std::function<void(UNet &, sim::Process &, Endpoint &,
                                    const SendDescriptor &)>;

/**
 * The Fig. 5 ping/echo without the application's copies or a warmup:
 * @p rounds round trips of @p size bytes on @p rig, each message
 * composed by rawDescriptor() and posted by @p post (UNet::send() by
 * default). The tests pin the arrival ticks this yields (golden
 * trace) and compare its digest across salts and send paths.
 */
inline ReplyRun
replyArrivals(sim::Simulation &s, RawPair &rig, std::size_t size,
              int rounds, const PostStep &post = {})
{
    ReplyRun run;
    auto send = [&](sim::Process &self, int side) {
        auto &un = rig.unetOf(side);
        auto &ep = rig.ep(side);
        SendDescriptor sd =
            rawDescriptor(un, rig.chan(side), size, 16384, !rig.isAtm());
        if (post)
            post(un, self, ep, sd);
        else
            un.send(self, ep, sd);
        un.flush(self, ep);
    };

    sim::Process echo(s, "echo", [&](sim::Process &self) {
        auto &un = rig.unetOf(1);
        auto &ep = rig.ep(1);
        postRecvBuffers(un, self, ep, 8);
        RecvDescriptor rd;
        for (int r = 0; r < rounds; ++r) {
            if (!ep.wait(self, rd, sim::seconds(1)))
                return;
            recycleBuffers(un, self, ep, rd);
            send(self, 1);
        }
    });

    sim::Process ping(s, "ping", [&](sim::Process &self) {
        auto &un = rig.unetOf(0);
        auto &ep = rig.ep(0);
        postRecvBuffers(un, self, ep, 8);
        RecvDescriptor rd;
        for (int r = 0; r < rounds; ++r) {
            send(self, 0);
            if (!ep.wait(self, rd, sim::seconds(1)))
                return;
            run.arrivals.push_back(s.now());
            recycleBuffers(un, self, ep, rd);
        }
    });

    rig.wire(ping, echo);
    echo.start();
    ping.start(sim::microseconds(5));
    s.run();

    obs::Digest d;
    d.mixRange(run.arrivals);
    d.mix(static_cast<std::uint64_t>(s.now()));
    d.mix(s.events().firedCount());
    d.mix(obs::digestOf(s.metrics()));
    run.digest = d.value();
    return run;
}

/**
 * Measure one-way streaming bandwidth in Mbit/s of payload for
 * @p size-byte messages over @p fabric.
 */
inline double
bandwidthMbps(Fabric fabric, std::size_t size, int messages = 400,
              RigOptions opts = {})
{
    sim::Simulation s;
    RawPair rig(s, fabric, opts);

    sim::Tick first_arrival = -1, last_arrival = -1;
    int delivered = 0;

    sim::Process sink(s, "sink", [&](sim::Process &self) {
        auto &un = rig.unetOf(1);
        auto &ep = rig.ep(1);
        postRecvBuffers(un, self, ep, 24);
        RecvDescriptor rd;
        while (delivered < messages) {
            if (!ep.wait(self, rd, sim::milliseconds(200)))
                return; // stream dried up (drops); report what we saw
            if (first_arrival < 0)
                first_arrival = s.now();
            last_arrival = s.now();
            ++delivered;
            recycleBuffers(un, self, ep, rd);
        }
    });

    sim::Process source(s, "source", [&](sim::Process &self) {
        auto &un = rig.unetOf(0);
        auto &ep = rig.ep(0);
        // Rotate the TX buffer: the zero-copy contract forbids
        // re-posting a buffer that is still in flight, and with a
        // 64-deep send queue plus a 64-slot device ring up to 128
        // sends can be outstanding at once. The source never posts
        // receive buffers, so the whole area is available.
        std::uint32_t slot_bytes = 2048;
        while (slot_bytes < size)
            slot_bytes *= 2;
        const std::uint32_t slots = static_cast<std::uint32_t>(
            ep.buffers().size() / slot_bytes);
        for (int m = 0; m < messages; ++m) {
            std::uint32_t tx_off =
                (static_cast<std::uint32_t>(m) % slots) * slot_bytes;
            while (!rawSend(un, self, ep, rig.chan(0), size, tx_off,
                            !rig.isAtm())) {
                // Send queue full: give the device time to drain.
                self.delay(sim::microseconds(20));
                un.flush(self, ep);
            }
        }
        un.flush(self, ep);
        // Keep re-kicking until the queue drains.
        while (!rig.ep(0).sendQueue().empty()) {
            self.delay(sim::microseconds(50));
            un.flush(self, ep);
        }
    });

    rig.wire(source, sink);
    sink.start();
    source.start(sim::microseconds(5));
    s.run();

    if (delivered < 2 || last_arrival <= first_arrival)
        return 0.0;
    double bits = static_cast<double>(delivered - 1) *
        static_cast<double>(size) * 8.0;
    double secs = sim::toSeconds(last_arrival - first_arrival);
    return bits / secs / 1e6;
}

/** One gate row of a unet-bench-v1 file (tools/bench_compare.py). */
struct BenchRow
{
    std::string name;
    double value;
    const char *unit;
    bool lowerIsBetter = true;
    /** printf precision of the value. */
    int decimals = 1;
};

/** Write @p rows to @p path as unet-bench-v1 JSON. @return false,
 *  after a message on stderr, when the file cannot be written. */
inline bool
writeBenchJson(const char *path, const std::vector<BenchRow> &rows)
{
    std::FILE *out = std::fopen(path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return false;
    }
    std::fprintf(out, "{\n  \"format\": \"unet-bench-v1\",\n"
                      "  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i)
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"value\": %.*f, "
                     "\"unit\": \"%s\", \"lower_is_better\": %s}%s\n",
                     rows[i].name.c_str(), rows[i].decimals,
                     rows[i].value, rows[i].unit,
                     rows[i].lowerIsBetter ? "true" : "false",
                     i + 1 < rows.size() ? "," : "");
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);
    return true;
}

/** printf-style row helper. */
inline void
row(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::printf("\n");
}

} // namespace unet::bench

#endif // UNET_BENCH_HARNESS_HH
