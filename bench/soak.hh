/**
 * @file
 * The Active-Message reliability soaks, shared by the soak_reliability
 * bench and the fault-soak tests.
 *
 * Each soak drives AM traffic through a fault::Plan scenario and
 * checks the reliability layer's contract end to end: exactly-once
 * in-order delivery, window-stall recovery, drain() termination, and
 * books that reconcile (fault.* counters vs. AM retransmits vs.
 * FCS/CRC drops). Every check is recorded by name whether it passes or
 * not, so a caller can require that each one ran.
 */

#ifndef UNET_BENCH_SOAK_HH
#define UNET_BENCH_SOAK_HH

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "am/active_messages.hh"
#include "bench/harness.hh"
#include "fault/attach.hh"

namespace unet::bench {

/** A recognizable payload. */
inline std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 7);
    return v;
}

/** What one soak observed, and the checks it made. */
struct SoakResult
{
    std::uint64_t sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t dropped = 0;   ///< units the plane destroyed outright
    std::uint64_t corrupted = 0; ///< units the plane bit-flipped
    std::uint64_t checksumDrops = 0; ///< FCS/CRC rejects at the hosts
    std::size_t armed = 0;           ///< injectors the plan armed
    /** Every check made, in order, and those that failed. */
    std::vector<std::string> checked, failed;

    bool ok() const { return failed.empty(); }

    /** Record check @p what; a failure is also printed. */
    void
    check(bool pass, const char *what)
    {
        checked.emplace_back(what);
        if (!pass) {
            failed.emplace_back(what);
            std::printf("    FAIL: %s\n", what);
        }
    }

    /** Tally the plane-side counters of every armed injector. */
    void
    tally(const fault::Plan &plan)
    {
        armed = plan.armed().size();
        for (const auto &inj : plan.armed()) {
            dropped += inj->dropped();
            corrupted += inj->corrupted();
        }
    }
};

/** @p scenario parsed, seeded with @p seed unless it pins its own. */
inline fault::Plan
soakPlan(const std::string &scenario, std::uint64_t seed)
{
    fault::Plan plan = fault::Plan::parse(scenario);
    if (plan.seed() == 1) // the scenario didn't pin one
        plan.setSeed(seed);
    return plan;
}

/**
 * Bidirectional AM soak over a full-duplex FE link: both sides fire
 * @p total sequenced, patterned requests, then drain. The send window
 * (8) is a fraction of @p total, so loss repeatedly stalls the window
 * and recovery is exercised on every run.
 */
inline SoakResult
feSoak(std::uint64_t seed, const std::string &scenario, int total)
{
    sim::Simulation s(seed);
    eth::FullDuplexLink link(s);
    topo::FeNode a(s, link, 0), b(s, link, 1);

    fault::Plan plan = soakPlan(scenario, seed * 1000 + 7);
    fault::attach(plan, s, link);

    /** One side's view; every fact starts out unproven. */
    struct Side
    {
        Endpoint *ep = nullptr;
        ChannelId chan = invalidChannel;
        std::unique_ptr<am::ActiveMessages> am;
        int got = 0, inOrder = 0, intact = 0;
        bool posted = false, arrived = false, drained = false;
    } sideA, sideB;
    int sidesDrained = 0;

    auto body = [&](Side &me) {
        return [&](sim::Process &proc) {
            me.am->setHandler(
                1, [&](sim::Process &, am::Token, const am::Args &args,
                       std::span<const std::uint8_t> payload) {
                    if (static_cast<int>(args[0]) == me.got)
                        ++me.inOrder;
                    auto want =
                        pattern(64, static_cast<std::uint8_t>(me.got));
                    if (std::equal(want.begin(), want.end(),
                                   payload.begin(), payload.end()))
                        ++me.intact;
                    ++me.got;
                });
            for (int i = 0; i < total; ++i) {
                auto payload = pattern(64, static_cast<std::uint8_t>(i));
                if (!me.am->request(proc, me.chan, 1,
                                    {static_cast<am::Word>(i), 0, 0, 0},
                                    payload))
                    return;
            }
            me.posted = true;
            me.arrived = me.am->pollUntil(
                proc, [&] { return me.got >= total; }, sim::seconds(10));
            me.drained = me.am->drain(proc, sim::seconds(10));
            // Keep servicing ACKs until the peer drains too.
            ++sidesDrained;
            me.am->pollUntil(proc, [&] { return sidesDrained >= 2; },
                             sim::seconds(10));
            me.am->pollUntil(proc, [] { return false; },
                             sim::milliseconds(5));
        };
    };

    sim::Process procA(s, "A", body(sideA));
    sim::Process procB(s, "B", body(sideB));

    sideA.ep = &a.unet.createEndpoint(&procA, {});
    sideB.ep = &b.unet.createEndpoint(&procB, {});
    UNetFe::connect(a.unet, *sideA.ep, b.unet, *sideB.ep, sideA.chan,
                    sideB.chan);
    sideA.am = std::make_unique<am::ActiveMessages>(a.unet, *sideA.ep);
    sideB.am = std::make_unique<am::ActiveMessages>(b.unet, *sideB.ep);
    sideA.am->openChannel(sideA.chan);
    sideB.am->openChannel(sideB.chan);
    procA.start();
    procB.start();
    s.run();

    SoakResult r;
    r.sent = sideA.am->sent() + sideB.am->sent();
    r.retransmits = sideA.am->retransmits() + sideB.am->retransmits();
    r.checksumDrops = a.unet.rxBadFrame() + b.unet.rxBadFrame();
    r.tally(plan);

    auto both = [&](auto fact) { return fact(sideA) && fact(sideB); };
    r.check(both([](Side &x) { return x.posted; }),
            "every request posted");
    r.check(both([](Side &x) { return x.arrived; }),
            "every request arrived in time");
    // Exactly-once, in-order, intact: no handler re-execution on
    // duplicates, no holes, no reordering leaking through.
    r.check(both([&](Side &x) { return x.got == total; }),
            "exactly-once delivery");
    r.check(both([&](Side &x) { return x.inOrder == total; }),
            "in-order delivery");
    r.check(both([&](Side &x) { return x.intact == total; }),
            "payload intact past the checksums");
    r.check(both([](Side &x) { return x.drained; }),
            "drain() terminated");
    r.check(both([](Side &x) { return x.am->deadChannels() == 0; }),
            "no channel died");
    // The books reconcile: every unit the plane destroyed had to be
    // repaired by a retransmission, and every corrupted frame was
    // caught (and counted) by the receive-side FCS check.
    r.check(r.dropped + r.corrupted == 0 || r.retransmits > 0,
            "wire faults repaired by retransmission");
    r.check(r.checksumDrops == r.corrupted,
            "rxBadFrame reconciles with fault.corrupted");
    return r;
}

/**
 * Bulk-store soak across an ATM star: a 25 KB store()'s fragment train
 * must land byte-exact through cell-level faults, with the done
 * handler firing exactly once. @p outs, when given, is written before
 * teardown.
 */
inline SoakResult
atmSoak(std::uint64_t seed, const std::string &scenario,
        const ObsOutputs *outs = nullptr)
{
    sim::Simulation s(seed);
    topo::Net star(s, topo::FabricKind::Atm);
    star.add("node0");
    star.add("node1");

    fault::Plan plan = soakPlan(scenario, seed);
    star.attachFaults(plan, {".a", ".b"});

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<am::ActiveMessages> amA, amB;
    std::vector<std::uint8_t> sink(30000, 0);
    int done = 0;
    bool posted = false, drained = false;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setBulkSink([&](std::uint32_t addr,
                             std::span<const std::uint8_t> d) {
            std::copy(d.begin(), d.end(), sink.begin() + addr);
        });
        amB->setHandler(2, [&](sim::Process &, am::Token, const am::Args &,
                               std::span<const std::uint8_t>) { ++done; });
        amB->pollUntil(proc, [&] { return done > 0; }, sim::seconds(10));
        amB->pollUntil(proc, [] { return false; }, sim::milliseconds(5));
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        auto data = pattern(25000, 3);
        posted = amA->store(proc, chanA, 500, data, 2);
        if (posted)
            drained = amA->drain(proc, sim::seconds(10));
    });

    epA = &star.unet(0).createEndpoint(&procA, {});
    epB = &star.unet(1).createEndpoint(&procB, {});
    star.connect(0, *epA, 1, *epB, chanA, chanB);
    // A 4 KB bulk fragment spans ~86 cells — with per-cell burst loss
    // nearly every fragment is hit. Tune the MTU down (~22 cells per
    // fragment), as a real deployment on a lossy link would.
    am::AmSpec spec;
    spec.bulkMtu = 1024;
    amA = std::make_unique<am::ActiveMessages>(star.unet(0), *epA, spec);
    amB = std::make_unique<am::ActiveMessages>(star.unet(1), *epB, spec);
    amA->openChannel(chanA);
    amB->openChannel(chanB);
    procA.start();
    procB.start();
    s.run();

    SoakResult r;
    r.sent = amA->sent() + amB->sent();
    r.retransmits = amA->retransmits() + amB->retransmits();
    r.checksumDrops =
        star.atm(0).nic.crcDrops() + star.atm(1).nic.crcDrops();
    r.tally(plan);

    auto want = pattern(25000, 3);
    r.check(posted, "store posted");
    r.check(done == 1, "done handler fired exactly once");
    r.check(std::equal(want.begin(), want.end(), sink.begin() + 500),
            "bulk payload byte-exact");
    r.check(drained, "drain() terminated");
    r.check(amA->deadChannels() == 0, "no channel died");
    // Reconcile: AAL5 counts one crcDrop per failed PDU, and a PDU can
    // only fail because at least one of its cells was destroyed — so
    // the CRC-drop total is positive when cells were corrupted and
    // never exceeds the number of destroyed cells.
    r.check(r.corrupted == 0 || r.checksumDrops > 0,
            "corrupted cells caught by the CRC");
    r.check(r.checksumDrops <= r.dropped + r.corrupted,
            "no more CRC drops than destroyed cells");
    r.check(r.dropped + r.corrupted == 0 || r.retransmits > 0,
            "wire faults repaired by retransmission");
    if (outs)
        outs->write(s);
    return r;
}

} // namespace unet::bench

#endif // UNET_BENCH_SOAK_HH
