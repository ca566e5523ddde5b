#!/usr/bin/env python3
"""The simulator's benchmark: builds its binary from source, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
    python3 perfbench/run.py --smoke [--workload NAME]

--trace 0 measures the end-to-end metrics in the perf config (Release,
UNET_CHECK=OFF, UNET_TRACE=OFF). --trace 1 measures the per-layer
metrics: a TaskObserver run, a traced run (UNET_TRACE=ON), a checked run
(UNET_CHECK=ON) and untraced runs to compare them with. --smoke runs
every workload at a tiny size through every mode and checks them.

A human-readable report comes first; the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Builds
go to .bench_build/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("serve_incast", "serve_sweep", "splitc_rsort", "rawnet")
# (UNET_CHECK, UNET_TRACE) per build.
CONFIGS = {"perf": ("OFF", "OFF"), "trace": ("OFF", "ON"),
           "check": ("ON", "OFF")}
# A measurement must end within 180 s; leave room for reporting.
RUN_LIMIT_S = 170
# glibc raises its mmap threshold, and with it the heap trim threshold,
# when it frees a large mmapped chunk. Whether that happens depends on
# the seed's allocation pattern, and it decides whether memory freed by
# one serve_sweep rig goes back to the kernel and is faulted in again
# by the next: set-up then took 0.5 s on some seeds and 0.9 s on others.
# Pinning the threshold at its default turns the dynamic rule off, so
# on every seed that memory is returned and faulted in again.
PASS_ENV = {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}
CUSTODY_KINDS = ("TxPost", "TxNic", "TxFw", "Wire", "RxKernel", "RxFw",
                 "RxQueue", "App")
COUNTERS = ("nic.frames_sent", "nic.rx_missed", "nic.cells_sent",
            "nic.fifo_overflows", "nic.crc_drops",
            "eth.switch.frames_dropped", "eth.hub.collisions",
            "atm.switch.cells_dropped", "unet.rx_queue_drops",
            "unet.vep.faults", "am.sent", "am.retransmits",
            "am.duplicates", "fault.dropped", "serve.issued",
            "serve.completed", "serve.give_ups", "serve.issued_late")
# Metric name -> unit, in report order. BENCHMARK.json lists the same.
END_TO_END = {"wall_s": "s", "setup_s": "s", "max_rss_mb": "MB",
              "sim_s": "sim_s"}
PER_LAYER = {
    "sim.events": "count", "sim.ns_per_event": "ns",
    "sim.fiber_resumes": "count", "sim.heap_callable_allocs": "count",
    "sim.compactions": "count", "sim.pool_records": "count",
    "host.core_s": "s", "host.callback_s": "s", "host.fiber_s": "s",
    "os.user_s": "s", "os.sys_s": "s", "os.minflt": "count",
    "teardown_s": "s",
    **{name: "count" for name in COUNTERS},
    "am.useful_ratio": "ratio",
    **{f"custody.{k}.{q}": "sim_us" for k in CUSTODY_KINDS
       for q in ("p50_us", "p99_us")},
    "custody.untiled_messages": "count",
    "custody.rtt_mismatched_rounds": "count",
    "serve.rpc_p99_us_min": "sim_us", "serve.rpc_p99_us_max": "sim_us",
    "splitc.compute_s": "sim_s", "splitc.comm_s": "sim_s",
    "check.overhead": "ratio", "obs.trace_overhead": "ratio",
    "obs.trace_dropped_spans": "count",
}
# Paper anchors for rawnet: (output, paper value, unit, what).
ANCHORS = (("rtt_fe_us", 57.0, "sim_us", "40 B round trip, FE hub"),
           ("rtt_atm_us", 89.0, "sim_us", "40 B round trip, ATM OC-3c"),
           ("bw_fe_mbps", 96.5, "Mbps", "1494 B bandwidth, FE Bay 28115"),
           ("bw_atm_mbps", 118.0, "Mbps", "1494 B bandwidth, ATM TAXI"))


class BenchError(Exception):
    pass


def log(msg=""):
    print(msg, flush=True)


def build_all(configs):
    """Configure (once) and build the binary in each config."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for config in configs:
        bdir = BUILD / config
        check, trace = CONFIGS[config]
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release",
                          f"-DUNET_CHECK={check}", f"-DUNET_TRACE={trace}"])
        steps.append(["cmake", "--build", str(bdir), "--target",
                      "perfbench", "-j", jobs])
        logfile = BUILD / f"build-{config}.log"
        with open(logfile, "a") as out:
            for cmd in steps:
                if subprocess.call(cmd, stdout=out,
                                   stderr=subprocess.STDOUT) != 0:
                    tail = logfile.read_text().splitlines()[-30:]
                    raise BenchError(f"build of {config} failed:\n" +
                                     "\n".join(tail))


class Runner:
    """Runs passes of the perfbench binary within the run's time limit.

    Each pass is a fresh process, so every pass starts from the same
    memory state (a 257-host rig built on a warm heap sets up ten times
    faster than on a cold one) and max RSS is per pass."""

    def __init__(self, smoke, deadline):
        self.smoke = smoke
        self.deadline = deadline

    def run(self, config, workload, seed, mode="plain", seconds=0.0,
            min_passes=1):
        """Passes until `seconds` have gone and `min_passes` ran."""
        start = time.monotonic()
        passes = []
        while (len(passes) < min_passes or
               time.monotonic() - start < seconds):
            passes.append(self.one(config, workload, seed, mode))
        return passes

    def one(self, config, workload, seed, mode):
        exe = BUILD / config / "perfbench"
        cmd = [str(exe), "--workload", workload, "--seed", str(seed),
               "--mode", mode]
        if self.smoke:
            cmd.append("--smoke")
        what = f"{workload} {mode} ({config})"
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"out of time before {what}")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=left,
                                  env={**os.environ, **PASS_ENV})
        except subprocess.TimeoutExpired:
            raise BenchError(f"{what} timed out")
        if proc.returncode != 0:
            raise BenchError(f"{what} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise BenchError(f"{what}: no record")
        return json.loads(lines[-1])


class Outcome:
    """Attempted and failed operations, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add_passes(self, passes):
        for p in passes:
            self.attempted += int(p["attempted"])
            self.failed += int(p["failed"])
            for why in p["failures"].values():
                self.reasons.append(why)

    def check_digests(self, passes, what):
        """Every pass of one seed must reproduce the same outputs."""
        bad = stats.digest_mismatches([p["digest"] for p in passes])
        self.attempted += len(passes)
        if bad:
            self.failed += bad
            self.reasons.append(f"{what}: {bad} of {len(passes)} passes "
                                "changed the simulated-output digest")


def history_key(workload, seed, smoke, exe):
    """Digest-history key: one per workload, seed, size and build."""
    size = "smoke" if smoke else "full"
    return f"{workload}:{seed}:{size}:{hashlib.sha256(exe).hexdigest()[:16]}"


def check_digest_history(outcome, workload, seed, smoke, digest):
    """A digest must also match earlier runs of the same build, seed and
    size."""
    exe = (BUILD / "perf" / "perfbench").read_bytes()
    key = history_key(workload, seed, smoke, exe)
    path = BUILD / "digests.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    if seen.setdefault(key, digest) != digest:
        outcome.failed += 1
        outcome.reasons.append(f"digest {digest} differs from an earlier "
                               f"run of this build ({seen[key]})")
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))


def timing_line(name, values, unit):
    m = stats.median(values)
    q1, q3 = stats.quartiles(values)
    n = len(values)
    q = stats.highest_supported(n, (0.9, 0.99))
    tail = (f"p{q * 100:g} {sorted(values)[int(q * (n - 1))]:.4f}" if q
            else "no tail percentile (needs >= 10 samples beyond)")
    log(f"  {name:<14} {m:.6f} {unit}  median of n={n}, "
        f"q1..q3 {q1:.6f}..{q3:.6f}; {tail}")


def print_outputs(workload, first):
    """Simulated outputs of the workload, with sample counts."""
    out = first["outputs"]
    log(f"  simulated outputs (seed {int(first['seed'])}, digest "
        f"{first['digest']}):")
    for name, q in (("rpc_p50_us", 0.5), ("rpc_p99_us", 0.99),
                    ("rpc_p999_us", 0.999)):
        if name in out:
            n = int(out[name + ".n"])
            flag = ("" if stats.supported(n, q) else
                    "  FLAGGED: fewer than 10 samples beyond")
            log(f"    {name:<20} {out[name]:10.2f} sim_us  n={n}, "
                f"{stats.beyond(n, q):.0f} beyond{flag}")
    for name in ("goodput_rps", "slo_violation_rate", "splitc_sim_s",
                 "lost_messages"):
        if name in out:
            log(f"    {name:<20} {out[name]:12.6f}")
    for name, paper, unit, what in ANCHORS:
        if name in out:
            dev = 100.0 * (out[name] - paper) / paper
            log(f"    {name:<20} {out[name]:10.2f} {unit:<7} paper "
                f"{paper:g} ({dev:+.1f}%)  {what}")
    points = [k[:-len(".p99_us")] for k in out if k.endswith(".p99_us")]
    if workload == "serve_sweep":
        for pt in sorted(points):
            n = int(out[pt + ".p99_us.n"])
            flag = "" if stats.supported(n, 0.99) else "  FLAGGED"
            log(f"    {pt:<20} p99 {out[pt + '.p99_us']:9.2f} sim_us "
                f"n={n}{flag}  digest {first['point_digests'][pt]}")


def end_to_end(drv, workload, seed, seconds, outcome):
    passes = drv.run("perf", workload, seed, "plain", seconds,
                     min_passes=3)
    outcome.add_passes(passes)
    outcome.check_digests(passes, workload)
    check_digest_history(outcome, workload, seed, drv.smoke,
                         passes[0]["digest"])
    log(f"{workload} seed {seed}: {len(passes)} passes, perf config")
    for key, unit in (("wall_s", "s"), ("setup_s", "s"),
                      ("teardown_s", "s"), ("max_rss_mb", "MB")):
        timing_line(key, [p[key] for p in passes], unit)
    print_outputs(workload, passes[0])
    return {
        "wall_s": stats.median([p["wall_s"] for p in passes]),
        "setup_s": stats.median([p["setup_s"] for p in passes]),
        "max_rss_mb": stats.median([p["max_rss_mb"] for p in passes]),
        "sim_s": stats.median([p["sim_s"] for p in passes]),
    }


def per_layer(drv, workload, seed, seconds, outcome):
    # Four configs share the run; the per-layer metrics carry no bound.
    share = seconds / 8.0
    plain = drv.run("perf", workload, seed, "plain", share, 2)
    prof = drv.run("perf", workload, seed, "profile", share)
    traced = drv.run("trace", workload, seed, "trace", share)
    checked = drv.run("check", workload, seed, "plain", share)
    runs = plain + prof + traced + checked
    outcome.add_passes(runs)
    # Checks, tracing and the observer must not change what is simulated.
    outcome.check_digests(runs, f"{workload} across configs")
    log(f"{workload} seed {seed}: per-layer passes plain {len(plain)}, "
        f"profile {len(prof)}, trace {len(traced)}, check {len(checked)}")

    first, tr = plain[0], traced[0]
    med = lambda ps, f: stats.median([f(p) for p in ps])
    wall = med(plain, lambda p: p["wall_s"])
    m = {
        "sim.events": first["events"],
        "sim.ns_per_event": 1e9 * med(plain, lambda p: p["run_s"]) /
        max(first["events"], 1),
        "sim.fiber_resumes": prof[0]["fiber_resumes"],
        "sim.heap_callable_allocs": first["heap_callable_allocs"],
        "sim.compactions": first["compactions"],
        "sim.pool_records": first["pool_records"],
        "host.core_s": med(prof, lambda p: p["run_s"] - p["fire_s"]),
        "host.callback_s": med(prof, lambda p: p["fire_s"] - p["fiber_s"]),
        "host.fiber_s": med(prof, lambda p: p["fiber_s"]),
        "os.user_s": med(plain, lambda p: p["user_s"]),
        "os.sys_s": med(plain, lambda p: p["sys_s"]),
        "os.minflt": med(plain, lambda p: p["minflt"]),
        "teardown_s": med(plain, lambda p: p["teardown_s"]),
    }
    for name in COUNTERS + ("splitc.compute_s", "splitc.comm_s"):
        m[name] = first["layers"].get(name, 0.0)
    # am.sent counts every emission, retransmits included.
    am = first["layers"]
    sent = am.get("am.sent", 0.0)
    m["am.useful_ratio"] = am.get("am.received", 0.0) / sent if sent else 0.0
    kinds = tr["custody"]["kinds"]
    for kind in CUSTODY_KINDS:
        k = kinds.get(kind, {"n": 0, "p50_us": 0.0, "p99_us": 0.0})
        m[f"custody.{kind}.p50_us"] = k["p50_us"]
        # A p99 with fewer than 10 spans beyond it is not reported.
        m[f"custody.{kind}.p99_us"] = (
            k["p99_us"] if stats.supported(k["n"], 0.99) else 0.0)
    cust = tr["custody"]
    m["custody.untiled_messages"] = cust["untiled"]
    m["custody.rtt_mismatched_rounds"] = cust["round_mismatches"]
    # A gap in a message's custody spans is a tracing defect, not a
    # failed operation: it is reported, and does not fail the run. (On
    # the FE hub a frame resent after a collision records its TxPost,
    # TxNic and Wire spans twice.)
    for n, of, what in (
            (cust["untiled"], cust["messages"],
             "messages have untiled custody spans"),
            (cust["round_mismatches"], cust["rounds"],
             "RTT rounds have custody spans that do not sum to the RTT")):
        if n:
            log(f"  note: {int(n)} of {int(of)} {what}")
    m["check.overhead"] = med(checked, lambda p: p["wall_s"]) / wall
    m["obs.trace_overhead"] = med(traced, lambda p: p["wall_s"]) / wall
    m["obs.trace_dropped_spans"] = cust["dropped"]

    # Tail spread across seeds: the simulated p99 on two more seeds.
    p99 = [first["outputs"].get("rpc_p99_us", 0.0)]
    if workload == "serve_incast":
        for k in (1, 2):
            extra = drv.one("perf", workload, seed + k, "plain")
            outcome.add_passes([extra])
            p99.append(extra["outputs"]["rpc_p99_us"])
    m["serve.rpc_p99_us_min"] = min(p99)
    m["serve.rpc_p99_us_max"] = max(p99)

    if workload == "serve_incast":
        log(f"  rpc_p99_us over seeds {seed}..{seed + 2}: "
            + ", ".join(f"{v:.2f}" for v in p99) + " sim_us")
    for kind in CUSTODY_KINDS:
        if kind in kinds:
            k = kinds[kind]
            flag = "" if stats.supported(k["n"], 0.99) else " (p99 FLAGGED)"
            log(f"  custody {kind:<9} p50 {k['p50_us']:9.3f} p99 "
                f"{k['p99_us']:9.3f} sim_us  n={int(k['n'])}{flag}")
    print_outputs(workload, first)
    return m


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, tiny sizes, every mode")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke is given")

    outcome = Outcome()
    try:
        build_all(CONFIGS)
        # The first run in a checkout also builds; the limit is for the
        # measurement.
        drv = Runner(args.smoke, time.monotonic() + RUN_LIMIT_S)
        if args.smoke:
            metrics = {}
            units = {**END_TO_END, **PER_LAYER}
            for w in ([args.workload] if args.workload else WORKLOADS):
                e2e = end_to_end(drv, w, args.seed, 0.0, outcome)
                layers = per_layer(drv, w, args.seed, 0.0, outcome)
                metrics.update({f"{w}.{k}": (v, units[k])
                                for k, v in {**e2e, **layers}.items()})
        else:
            measure, units = ((per_layer, PER_LAYER) if args.trace
                              else (end_to_end, END_TO_END))
            values = measure(drv, args.workload, args.seed, args.seconds,
                             outcome)
            metrics = {k: (float(values[k]), u) for k, u in units.items()}
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    log("metrics:")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<32} {value:.6g} {unit}")
    for why in outcome.reasons:
        log(f"FAILED: {why}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    log(f"fail_rate {rate:.6g} ({outcome.failed} of {outcome.attempted})")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 1 if args.smoke and not result["correct"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
