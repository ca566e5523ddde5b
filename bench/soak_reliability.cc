/**
 * @file
 * Loss-hardened reliability soak harness.
 *
 * Drives Active-Message request/reply and bulk-store traffic across
 * seeded fault matrices — Bernoulli drop, Gilbert-Elliott burst loss,
 * FCS/CRC-caught corruption, bounded reordering — and checks the
 * reliability layer's contract end to end: exactly-once in-order
 * delivery, window-stall recovery, drain() termination, and books that
 * reconcile (fault.* counters vs. am retransmits vs. FCS/CRC drops).
 *
 * Modes:
 *   (none)              seeded matrix: scenarios x seeds, FE + ATM
 *   --seeds N           widen the seed matrix (ctest runs 5)
 *   --fault SCENARIO    one run under a custom fault::Plan scenario
 *                       string (same grammar as the tests; DESIGN.md
 *                       §12)
 *   --sweep             RTT vs. loss-rate sweep (EXPERIMENTS.md fig5
 *                       extension)
 *   --metrics FILE      flat JSON metrics snapshot of the last run
 *                       (includes every fault.<site>.* counter)
 *
 * An unknown flag, a flag without its value, or a --seeds that is not
 * a positive integer exits 2.
 */

#include <cstring>
#include <memory>

#include "bench/soak.hh"

using namespace unet;
using namespace unet::am;
using namespace unet::bench;
using topo::FeNode;

namespace {

/**
 * Mean AM request/reply round-trip (us) under symmetric Bernoulli
 * wire loss — the fig5 measurement repeated on a faulty network.
 */
double
rttUnderLossUs(double loss_rate, int rounds, std::uint64_t seed)
{
    sim::Simulation s(seed);
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    fault::Plan plan;
    plan.setSeed(seed * 31 + 5);
    plan.model("eth.link.*").drop = loss_rate;
    fault::attach(plan, s, link);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    int replies = 0;
    double total_us = 0;
    int measured = 0;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setHandler(1, [&](sim::Process &inner, Token tok,
                               const Args &args,
                               std::span<const std::uint8_t>) {
            amB->reply(inner, tok, 2, args);
        });
        amB->pollUntil(proc, [&] { return replies >= rounds; },
                       sim::seconds(30));
        amB->pollUntil(proc, [] { return false; },
                       sim::milliseconds(5));
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        amA->setHandler(2, [&](sim::Process &, Token, const Args &,
                               std::span<const std::uint8_t>) {
            ++replies;
        });
        auto payload = pattern(40);
        for (int r = 0; r < rounds; ++r) {
            sim::Tick t0 = s.now();
            if (!amA->request(proc, chanA, 1,
                              {static_cast<Word>(r), 0, 0, 0},
                              payload))
                return;
            if (!amA->pollUntil(proc, [&] { return replies > r; },
                                sim::seconds(1)))
                return;
            total_us += sim::toMicroseconds(s.now() - t0);
            ++measured;
        }
        amA->drain(proc, sim::seconds(10));
    });

    epA = &a.unet.createEndpoint(&procA, {});
    epB = &b.unet.createEndpoint(&procB, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);
    amA = std::make_unique<ActiveMessages>(a.unet, *epA);
    amB = std::make_unique<ActiveMessages>(b.unet, *epB);
    amA->openChannel(chanA);
    amB->openChannel(chanB);
    procA.start();
    procB.start();
    s.run();

    return measured == rounds ? total_us / measured : -1.0;
}

struct Scenario
{
    const char *name;
    const char *fe;
    const char *atm;
};

constexpr Scenario scenarios[] = {
    {"drop", "eth.link.*.drop=0.15",
     "atm.link.*.drop=0.01 atm.switch.drop=0.005"},
    {"burst", "eth.link.*.ge=0.02/0.25/1.0",
     "atm.link.a.*.ge=0.01/0.3/1.0"},
    {"corrupt", "eth.link.*.corrupt=0.08", "atm.link.*.corrupt=0.01"},
    // ATM guarantees cell-sequence integrity on a VC, so reordering is
    // an FE-only fault; the ATM column exercises drops instead.
    {"reorder",
     "eth.link.*.reorder=0.25 eth.link.*.reorder_delay_us=200 "
     "eth.link.*.jitter_us=20",
     "atm.link.*.drop=0.008 atm.switch.drop=0.002"},
};

void
printResult(const char *rig, const SoakResult &r)
{
    row("    %-3s %-4s  sent=%-5llu retx=%-4llu wireDrop=%-4llu "
        "wireCorrupt=%-4llu checksumDrop=%-4llu",
        rig, r.ok() ? "ok" : "FAIL",
        static_cast<unsigned long long>(r.sent),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.dropped),
        static_cast<unsigned long long>(r.corrupted),
        static_cast<unsigned long long>(r.checksumDrops));
}

} // namespace

int
main(int argc, char **argv)
{
    const char *usage = "soak_reliability [--seeds N | --fault SCENARIO "
                        "| --sweep] [--metrics FILE] [--trace FILE]";
    const char *fault_arg = nullptr;
    bool sweep = false;
    int seeds = 3;
    ObsOutputs outs;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strncmp(arg, "--fault=", 8)) {
            fault_arg = arg + 8;
        } else if (!std::strcmp(arg, "--fault")) {
            fault_arg = flagValue(argc, argv, i, usage);
        } else if (!std::strcmp(arg, "--sweep")) {
            sweep = true;
        } else if (!std::strcmp(arg, "--seeds")) {
            seeds = positiveArg(flagValue(argc, argv, i, usage), "--seeds",
                                usage);
        } else if (!outs.parse(argc, argv, i, usage)) {
            usageError(usage, "unknown argument", arg);
        }
    }
    const ObsOutputs *outsp = outs.requested() ? &outs : nullptr;

    if (sweep) {
        // EXPERIMENTS.md fig5 extension: how the paper's 40-byte AM
        // round trip degrades as the wire loses frames.
        row("AM round-trip latency (40B payload) vs wire loss rate");
        row("%8s %12s %12s", "loss", "mean RTT us", "x no-loss");
        double base = rttUnderLossUs(0.0, 60, 1);
        for (double loss : {0.0, 0.005, 0.01, 0.02, 0.05, 0.10, 0.15,
                            0.20}) {
            double rtt = rttUnderLossUs(loss, 60, 1);
            row("%7.1f%% %12.1f %12.2f", loss * 100, rtt,
                rtt / base);
        }
        return 0;
    }

    if (fault_arg) {
        row("soak under custom plan: %s", fault_arg);
        SoakResult fe = feSoak(1, fault_arg, 60);
        printResult("FE", fe);
        SoakResult atm = atmSoak(1, fault_arg, outsp);
        printResult("ATM", atm);
        return fe.ok() && atm.ok() ? 0 : 1;
    }

    bool all_ok = true;
    row("reliability soak: %d seeds x %zu scenarios "
        "(FE bidir AM + ATM bulk store)",
        seeds, std::size(scenarios));
    for (const Scenario &sc : scenarios) {
        row("  %s", sc.name);
        for (int seed = 1; seed <= seeds; ++seed) {
            bool last = &sc == &scenarios[std::size(scenarios) - 1] &&
                seed == seeds;
            SoakResult fe = feSoak(seed, sc.fe, 60);
            SoakResult atm =
                atmSoak(seed, sc.atm, last ? outsp : nullptr);
            if (!fe.ok() || !atm.ok())
                row("    seed=%d FAILED", seed);
            all_ok = all_ok && fe.ok() && atm.ok();
            if (seed == 1) {
                printResult("FE", fe);
                printResult("ATM", atm);
            }
        }
    }
    row("%s", all_ok ? "\nall scenarios reconciled." : "\nFAILURES.");
    return all_ok ? 0 : 1;
}
