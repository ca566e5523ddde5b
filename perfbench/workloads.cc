/**
 * @file
 * The four workloads. Each chooses a different shape of simulation so
 * that a change to one layer shows on one workload and leaves another
 * alone (see README.md for the reasons and the layer map).
 */

#include <algorithm>
#include <bit>
#include <memory>

#include "apps/radix_sort.hh"
#include "bench/harness.hh"
#include "cluster/cluster.hh"
#include "serve/rig.hh"
#include "workloads.hh"

namespace perfbench {

using namespace unet;

namespace {

/**
 * Trace-ring capacity for about @p spans spans. The cap bounds the
 * ring at 128 MiB; runs past it keep their latest spans and report the
 * rest as dropped.
 */
std::size_t
ringFor(std::size_t spans)
{
    return std::min(std::bit_ceil(spans), std::size_t{1} << 22);
}

/** Times the three steps of one rig's life into the pass. */
class StepClock
{
  public:
    explicit StepClock(Pass &pass) : pass(pass), mark(now()) {}

    void built() { pass.setupS += lap(); }
    void ran() { pass.runS += lap(); }
    /** Restart the clock without charging (reading outputs). */
    void skip() { lap(); }
    void tornDown() { pass.teardownS += lap(); }

  private:
    double
    lap()
    {
        double t = now();
        double d = t - mark;
        mark = t;
        return d;
    }

    Pass &pass;
    double mark;
};

// ---------------------------------------------------------------- serve

/**
 * Single-server saturation throughput (requests/s) of each NIC's
 * message path, as calibrated by bench/serve_slo: the load axis is
 * utilization of these capacities.
 */
double
capacityRps(serve::NicKind nic)
{
    return nic == serve::NicKind::Fe ? 55000.0 : 28000.0;
}

struct ServePoint
{
    serve::NicKind nic;
    int clients;
    double utilization; ///< 0 = closed loop
    bool loss;
};

std::string
pointName(const ServePoint &pt)
{
    std::string n = pt.nic == serve::NicKind::Fe ? "fe" : "atm";
    n += "_c" + std::to_string(pt.clients);
    n += pt.utilization > 0
             ? "_u" + std::to_string(static_cast<int>(
                          pt.utilization * 100 + 0.5))
             : std::string("_closed");
    return pt.loss ? n + "_loss" : n;
}

/** Build, run and tear down one serving rig; account it in the pass. */
void
runServePoint(Probe &probe, const ServePoint &pt, std::uint64_t seed,
              int total_requests, bool headline)
{
    Pass &pass = probe.pass();
    serve::RigSpec spec;
    spec.nic = pt.nic;
    spec.clients = pt.clients;
    spec.seed = seed;
    if (pt.loss)
        spec.faults =
            "seed=" + std::to_string(seed + 10) +
            (pt.nic == serve::NicKind::Fe ? " eth.switch" : " atm.switch") +
            ".ge=0.005/0.2/0.8";

    serve::Workload w;
    w.requestsPerClient =
        std::max(8, (total_requests + pt.clients - 1) / pt.clients);
    if (pt.utilization > 0) {
        double offered = pt.utilization * capacityRps(pt.nic);
        w.meanGap = static_cast<sim::Tick>(pt.clients * 1e12 / offered);
    } else {
        w.closedLoop = true;
        w.window = 2;
        w.meanThink = sim::microseconds(50);
    }

    StepClock clock(pass);
    auto rig = std::make_unique<serve::ServeRig>(spec);
    clock.built();
    probe.attach(rig->simulation(),
                 ringFor(static_cast<std::size_t>(total_requests) * 64));
    serve::RunResult r = rig->run(w);
    clock.ran();
    const std::string name = pointName(pt);
    pass.pointDigests[name] = probe.collect(rig->simulation());
    std::uint64_t n = rig->stats().latencyNs().count();
    pass.attempted += r.issued;
    pass.failed += r.giveUps;
    if (r.giveUps)
        pass.failures.push_back(name + ": " + std::to_string(r.giveUps) +
                                " give-ups");
    if (!r.finished)
        pass.fail(name + ": rig did not finish");
    if (r.issued != r.completed + r.giveUps)
        pass.fail(name + ": issued != completed + giveUps");

    pass.simS += sim::toSeconds(r.makespan);
    pass.layers["serve.issued"] += r.issued;
    pass.layers["serve.completed"] += r.completed;
    pass.layers["serve.give_ups"] += r.giveUps;
    pass.layers["serve.issued_late"] += r.issuedLate;
    pass.outputs["slo_violations"] += r.sloViolations;
    pass.outputs["slo_issued"] += r.issued;
    pass.outputs[name + ".p99_us"] = r.p99Us;
    pass.outputs[name + ".p99_us.n"] = n;
    if (headline) {
        pass.outputs["rpc_p50_us"] = r.p50Us;
        pass.outputs["rpc_p99_us"] = r.p99Us;
        pass.outputs["rpc_p999_us"] = r.p999Us;
        pass.outputs["rpc_p50_us.n"] = n;
        pass.outputs["rpc_p99_us.n"] = n;
        pass.outputs["rpc_p999_us.n"] = n;
        pass.outputs["goodput_rps"] = r.goodputRps;
    }
    pass.digest.mix(r.p50Us).mix(r.p99Us).mix(r.p999Us).mix(r.goodputRps);
    clock.skip();
    rig.reset();
    clock.tornDown();
}

void
finishServe(Pass &pass)
{
    double issued = pass.outputs["slo_issued"];
    pass.outputs["slo_violation_rate"] =
        issued > 0 ? pass.outputs["slo_violations"] / issued : 0.0;
}

// ----------------------------------------------------------- raw U-Net
//
// Both sweeps run on bench::RawPair, the figure benches' two-node rig;
// each point builds its own so set-up is timed apart from the run.

void
recycle(UNet &un, sim::Process &self, Endpoint &ep,
        const RecvDescriptor &rd)
{
    if (!rd.isSmall)
        for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
            un.postFree(self, ep, {rd.buffers[i].offset, 2048});
}

/** Outcome of one rawnet point. */
struct PointResult
{
    double value = 0; ///< mean RTT (us) or bandwidth (Mbit/s)
    int sent = 0;
    int delivered = 0;
    /** Losses the receiving NIC counted (overflowed or CRC-failed
     *  cells, missed frames): every lost message lost at least one. */
    double counted = 0;
    /** The PCA-200s' own message counts equal sent and delivered. */
    bool nicAgrees = true;
};

/**
 * Fig. 5 point: mean user-level round trip over @p rounds after one
 * warm-up round. Under tracing each side back-dates the next message's
 * custody to where the previous one ended and records the turnaround
 * as an App span, so a round's custody spans tile its RTT; the audit
 * counts rounds where they do not.
 */
PointResult
roundTrip(Probe &probe, bench::Fabric fabric, std::size_t size, int rounds)
{
    Pass &pass = probe.pass();
    StepClock clock(pass);
    auto s = std::make_unique<sim::Simulation>();
    auto pair = std::make_unique<bench::RawPair>(*s, fabric);
    PointResult res;
    std::vector<sim::Tick> rtt;
    std::vector<std::uint64_t> ids[2];

    // Composed here, not through bench::rawSend, so that the custody
    // context rides on the descriptor. U-Net/FE has no inline path.
    auto post = [&](int side, sim::Process &self, sim::Tick handoff) {
        UNet &un = pair->unetOf(side);
        SendDescriptor sd;
        sd.channel = pair->chan(side);
        if (pair->isAtm() && size <= un.inlineMax()) {
            sd.isInline = true;
            sd.inlineLength = static_cast<std::uint32_t>(size);
        } else {
            sd.fragmentCount = 1;
            sd.fragments[0] = {16384, static_cast<std::uint32_t>(size)};
        }
#if UNET_TRACE
        if (auto *tr = s->trace()) {
            tr->begin(sd.trace, handoff);
            tr->hop(sd.trace, obs::SpanKind::App, side ? "B.app" : "A.app",
                    s->now());
            ids[side].push_back(sd.trace.id);
        }
#else
        (void)handoff;
#endif
        ++res.sent;
        un.send(self, pair->ep(side), sd);
        un.flush(self, pair->ep(side));
    };
    auto arm = [&](int side, sim::Process &self) {
        for (int i = 0; i < 8; ++i)
            pair->unetOf(side).postFree(
                self, pair->ep(side),
                {static_cast<std::uint32_t>(i * 2048), 2048});
    };

    auto echo = std::make_unique<sim::Process>(*s, "echo",
                                               [&](sim::Process &self) {
        arm(1, self);
        host::Cpu &cpu = pair->hostOf(1).cpu();
        RecvDescriptor rd;
        for (int r = 0; r <= rounds; ++r) {
            if (!pair->ep(1).wait(self, rd, sim::seconds(1)))
                return;
            ++res.delivered;
            sim::Tick consumed = s->now();
            // Examine the message and compose the reply: two copies.
            cpu.busy(self, cpu.spec().memcpyTime(size));
            recycle(pair->unetOf(1), self, pair->ep(1), rd);
            cpu.busy(self, cpu.spec().memcpyTime(size));
            post(1, self, consumed);
        }
    });
    auto ping = std::make_unique<sim::Process>(*s, "ping",
                                               [&](sim::Process &self) {
        arm(0, self);
        host::Cpu &cpu = pair->hostOf(0).cpu();
        RecvDescriptor rd;
        for (int r = 0; r <= rounds; ++r) {
            sim::Tick t0 = s->now();
            cpu.busy(self, cpu.spec().memcpyTime(size));
            post(0, self, t0);
            if (!pair->ep(0).wait(self, rd, sim::seconds(1)))
                return;
            ++res.delivered;
            rtt.push_back(s->now() - t0);
            recycle(pair->unetOf(0), self, pair->ep(0), rd);
        }
    });
    pair->wire(*ping, *echo);
    clock.built();
    probe.attach(*s, ringFor(static_cast<std::size_t>(rounds) * 64));
    echo->start();
    ping->start(sim::microseconds(5));
    s->run();
    clock.ran();
    probe.collect(*s);

    double total = 0;
    for (std::size_t r = 1; r < rtt.size(); ++r) // round 0 warms up
        total += sim::toMicroseconds(rtt[r]);
    res.value = rtt.size() > 1 ? total / static_cast<double>(rtt.size() - 1)
                               : 0.0;
    pass.simS += sim::toSeconds(s->now());

#if UNET_TRACE
    if (auto *tr = s->trace()) {
        std::map<std::uint64_t, sim::Tick> custody;
        tr->forEach([&](const obs::Span &sp) {
            if (obs::isCustody(sp.kind))
                custody[sp.id] += sp.end - sp.start;
        });
        for (std::size_t r = 1; r < rtt.size(); ++r) {
            ++pass.custody.rounds;
            if (r >= ids[0].size() || r >= ids[1].size() ||
                custody[ids[0][r]] + custody[ids[1][r]] != rtt[r])
                ++pass.custody.roundMismatches;
        }
    }
#endif
    clock.skip();
    ping.reset();
    echo.reset();
    pair.reset();
    s.reset();
    clock.tornDown();
    return res;
}

/**
 * Fig. 6 point: one-way streaming bandwidth in Mbit/s of payload, from
 * the first to the last arrival of @p messages back-to-back sends.
 */
PointResult
stream(Probe &probe, bench::Fabric fabric, std::size_t size, int messages)
{
    Pass &pass = probe.pass();
    StepClock clock(pass);
    auto s = std::make_unique<sim::Simulation>();
    auto pair = std::make_unique<bench::RawPair>(*s, fabric);
    PointResult res;
    sim::Tick first = -1, last = -1;

    auto sink = std::make_unique<sim::Process>(*s, "sink",
                                               [&](sim::Process &self) {
        UNet &un = pair->unetOf(1);
        Endpoint &ep = pair->ep(1);
        for (int i = 0; i < 24; ++i)
            un.postFree(self, ep,
                        {static_cast<std::uint32_t>(i * 2048), 2048});
        RecvDescriptor rd;
        while (res.delivered < messages) {
            if (!ep.wait(self, rd, sim::milliseconds(200)))
                return; // the stream dried up: the point fails
            if (first < 0)
                first = s->now();
            last = s->now();
            ++res.delivered;
            recycle(un, self, ep, rd);
        }
    });
    auto source = std::make_unique<sim::Process>(*s, "source",
                                                 [&](sim::Process &self) {
        UNet &un = pair->unetOf(0);
        Endpoint &ep = pair->ep(0);
        // Rotate TX buffers: a buffer may not be re-posted while a
        // send from it is still in flight (zero-copy contract).
        std::uint32_t slot = 2048;
        while (slot < size)
            slot *= 2;
        const auto slots =
            static_cast<std::uint32_t>(ep.buffers().size() / slot);
        for (int m = 0; m < messages; ++m) {
            const std::uint32_t off =
                (static_cast<std::uint32_t>(m) % slots) * slot;
            while (!bench::rawSend(un, self, ep, pair->chan(0), size, off,
                                   !pair->isAtm())) {
                self.delay(sim::microseconds(20)); // send queue full
                un.flush(self, ep);
            }
            ++res.sent;
        }
        un.flush(self, ep);
        while (!ep.sendQueue().empty()) {
            self.delay(sim::microseconds(50));
            un.flush(self, ep);
        }
    });
    pair->wire(*source, *sink);
    clock.built();
    probe.attach(*s, ringFor(static_cast<std::size_t>(messages) * 32));
    sink->start();
    source->start(sim::microseconds(5));
    s->run();
    clock.ran();
    const obs::Registry &reg = s->metrics();
    if (pair->isAtm()) {
        res.counted = reg.value("host.B.nic.pca200.fifoOverflows") +
                      reg.value("host.B.nic.pca200.crcDrops");
        res.nicAgrees =
            reg.value("host.A.nic.pca200.messagesSent") == res.sent &&
            reg.value("host.B.nic.pca200.messagesDelivered") ==
                res.delivered;
    } else {
        res.counted = reg.value("host.B.nic.dc21140.rxMissed");
    }
    probe.collect(*s);

    if (res.delivered >= 2 && last > first)
        res.value = static_cast<double>(res.delivered - 1) *
                    static_cast<double>(size) * 8.0 /
                    sim::toSeconds(last - first) / 1e6;
    pass.simS += sim::toSeconds(s->now());
    clock.skip();
    source.reset();
    sink.reset();
    pair.reset();
    s.reset();
    clock.tornDown();
    return res;
}

} // namespace

// ------------------------------------------------------------ workloads

void
serveIncast(std::uint64_t seed, const Scale &scale, Probe &probe)
{
    // u = 0.6 of the FE server's capacity: queueing is real but the
    // backlog does not grow. At u = 0.8 this fan-in is metastable:
    // about half the seeds fall into an AM retransmit storm with
    // switch drops, dead channels and give-ups.
    runServePoint(probe,
                  {serve::NicKind::Fe, scale.incastClients, 0.6, false},
                  seed, scale.incastRequests, true);
    finishServe(probe.pass());
}

void
serveSweep(std::uint64_t seed, const Scale &scale, Probe &probe)
{
    for (serve::NicKind nic : {serve::NicKind::Fe, serve::NicKind::Atm}) {
        for (int clients : {4, 16, 64})
            for (double u : {0.2, 0.5, 0.8})
                runServePoint(probe, {nic, clients, u, false}, seed,
                              scale.sweepRequestsPerPoint, false);
        runServePoint(probe, {nic, 16, 0.0, false}, seed,
                      scale.sweepRequestsPerPoint, false);
        runServePoint(probe, {nic, 64, 0.5, true}, seed,
                      scale.sweepRequestsPerPoint, false);
    }
    finishServe(probe.pass());
}

void
splitcRsort(std::uint64_t seed, const Scale &scale, Probe &probe)
{
    constexpr int nodes = 8;
    Pass &pass = probe.pass();
    StepClock clock(pass);
    auto s = std::make_unique<sim::Simulation>();
    cluster::Config cfg = cluster::Config::feCluster(nodes);
    cfg.simTimeLimit = sim::seconds(60);
    auto c = std::make_unique<cluster::Cluster>(*s, cfg);
    clock.built();
    probe.attach(*s, ringFor(scale.rsortKeysPerNode * nodes * 64));

    std::vector<char> verified(nodes, 0);
    sim::Tick t = c->run([&](splitc::Runtime &rt, sim::Process &proc) {
        apps::RadixConfig rc;
        rc.keysPerNode = scale.rsortKeysPerNode;
        rc.largeMessages = false;
        rc.seed = seed;
        verified[static_cast<std::size_t>(rt.self())] =
            apps::runRadixSort(rt, proc, rc).verified;
    });
    clock.ran();
    probe.collect(*s);

    double compute = 0, comm = 0;
    pass.attempted += nodes;
    for (int i = 0; i < nodes; ++i) {
        if (!verified[static_cast<std::size_t>(i)])
            pass.fail("rsort node " + std::to_string(i) + " unverified");
        compute += sim::toSeconds(c->runtime(i).profile().compute);
        comm += sim::toSeconds(c->runtime(i).profile().comm);
    }
    pass.simS += sim::toSeconds(t);
    pass.outputs["splitc_sim_s"] = sim::toSeconds(t);
    pass.layers["splitc.compute_s"] = compute / nodes;
    pass.layers["splitc.comm_s"] = comm / nodes;
    pass.digest.mix(static_cast<std::int64_t>(t)).mix(compute).mix(comm);
    clock.skip();
    c.reset();
    s.reset();
    clock.tornDown();
}

void
rawnet(std::uint64_t, const Scale &scale, Probe &probe)
{
    Pass &pass = probe.pass();
    // A point fails if it did not send everything, could not measure,
    // or lost a message the receiving NIC did not count. Raw U-Net has
    // no flow control: a sustained multi-cell TAXI stream overruns the
    // PCA-200's receive FIFO, which the NIC counts per cell; that loss
    // is part of the modelled Fig. 6 curve and is reported, not failed.
    auto account = [&](const std::string &name, const PointResult &r,
                       int expected) {
        ++pass.attempted;
        int lost = expected - r.delivered;
        if (r.sent < expected || r.delivered < 2 || lost > r.counted ||
            !r.nicAgrees)
            pass.fail(name + ": delivered " + std::to_string(r.delivered) +
                      " of " + std::to_string(expected));
        pass.outputs["lost_messages"] += lost;
        pass.digest.mix(name).mix(r.value);
    };

    // Fig. 5: round-trip latency against message size.
    const std::size_t rttSizes[] = {0,   8,   16,  24,  32,  40,  44,
                                    48,  64,  80,  96,  128, 192, 256,
                                    384, 512, 768, 1024, 1280, 1494};
    using bench::Fabric;
    for (Fabric f : {Fabric::FeHub, Fabric::FeBay, Fabric::FeFn100,
                     Fabric::AtmOc3})
        for (std::size_t size : rttSizes) {
            PointResult r = roundTrip(probe, f, size, scale.rttRounds);
            std::string name = std::string("rtt ") + bench::fabricName(f) +
                               " " + std::to_string(size) + " B";
            account(name, r, 2 * (scale.rttRounds + 1));
            if (size == 40 && f == Fabric::FeHub)
                pass.outputs["rtt_fe_us"] = r.value;
            if (size == 40 && f == Fabric::AtmOc3)
                pass.outputs["rtt_atm_us"] = r.value;
        }

    // Fig. 6: one-way streaming bandwidth against message size.
    const std::size_t bwSizes[] = {8,    16,   32,   40,  48,  64,  88,
                                   96,   128,  136,  192, 256, 344, 384,
                                   512,  680,  768,  1024, 1200, 1344,
                                   1494};
    for (Fabric f : {Fabric::FeHub, Fabric::FeBay, Fabric::AtmTaxi})
        for (std::size_t size : bwSizes) {
            std::string name = std::string("bw ") + bench::fabricName(f) +
                               " " + std::to_string(size) + " B";
            PointResult r;
            for (int rep = 0; rep < scale.bwRepeats; ++rep) {
                r = stream(probe, f, size, scale.bwMessages);
                account(name, r, scale.bwMessages);
            }
            if (size == 1494 && f == Fabric::FeBay)
                pass.outputs["bw_fe_mbps"] = r.value;
            if (size == 1494 && f == Fabric::AtmTaxi)
                pass.outputs["bw_atm_mbps"] = r.value;
        }
}

} // namespace perfbench
