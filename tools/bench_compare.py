#!/usr/bin/env python3
"""Compare benchmark results against a committed baseline.

Understands two input formats:

* google-benchmark JSON (``--benchmark_out``): per-benchmark
  ``real_time`` (lower is better) and optional ``allocs_per_op`` /
  ``items_per_second`` counters. These are host wall-clock
  measurements: a metric fails when it regresses by more than the
  threshold (default 15%). Allocation counts are compared
  near-exactly: the zero-allocation hot paths must stay zero, and a
  deliberate heap-fallback bench must not silently grow.
* unet-bench-v1 JSON (emitted by ``bench/micro_batch``,
  ``bench/ep_scale`` and ``bench/serve_slo``): a flat ``benchmarks``
  list of ``{name, value, unit, lower_is_better}``. These rows are
  simulated outputs, deterministic functions of the seed, so every
  value must equal its baseline exactly.

Usage:
    bench_compare.py BASELINE CURRENT [--threshold 0.15]
    bench_compare.py BASELINE CURRENT --update
"""

import argparse
import json
import shutil
import sys

# Counters where larger is better (rates); everything else numeric is
# treated as lower-is-better (times).
HIGHER_IS_BETTER_SUFFIXES = ("_per_second",)

# Tolerance for allocation-count comparisons. Steady-state benches
# report ~1e-7 allocs/op of framework noise; anything below this is
# "zero" and anything drifting by more than this against baseline is a
# real change in allocation behaviour.
ALLOC_TOLERANCE = 0.01


def load(path):
    with open(path) as f:
        return json.load(f)


def metrics_of(doc):
    """Flatten a results document into {metric_name: (value, lower_is_better)}."""
    out = {}
    if doc.get("format") == "unet-bench-v1":
        for bench in doc.get("benchmarks", []):
            out[bench["name"]] = (
                float(bench["value"]),
                bool(bench.get("lower_is_better", True)),
            )
        return out
    # google-benchmark format
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        if "real_time" in bench:
            out[name + "/real_time"] = (float(bench["real_time"]), True)
        for key, value in bench.items():
            if key in ("real_time", "cpu_time", "iterations",
                       "repetitions", "repetition_index",
                       "threads", "time_unit", "name", "run_name",
                       "run_type", "family_index",
                       "per_family_instance_index"):
                continue
            if isinstance(value, (int, float)):
                lower = not key.endswith(HIGHER_IS_BETTER_SUFFIXES)
                out[f"{name}/{key}"] = (float(value), lower)
    return out


def compare(baseline, current, threshold):
    failures = []
    base = metrics_of(baseline)
    cur = metrics_of(current)
    exact = baseline.get("format") == "unet-bench-v1"
    for name, (base_val, lower) in sorted(base.items()):
        if name not in cur:
            failures.append(f"MISSING  {name}: present in baseline, "
                            "absent in current results")
            continue
        cur_val, _ = cur[name]
        if exact:
            if cur_val != base_val:
                failures.append(
                    f"CHANGED  {name}: {base_val!r} -> {cur_val!r} "
                    "(simulated outputs must reproduce exactly)")
            continue
        if name.endswith("/allocs_per_op"):
            if cur_val > base_val + ALLOC_TOLERANCE:
                failures.append(
                    f"ALLOC    {name}: {base_val:.4g} -> {cur_val:.4g} "
                    "allocations per op increased")
            else:
                print(f"ok       {name}: {base_val:.4g} -> {cur_val:.4g}")
            continue
        if base_val == 0:
            print(f"skip     {name}: baseline is 0")
            continue
        ratio = cur_val / base_val
        regressed = ratio > 1 + threshold if lower \
            else ratio < 1 - threshold
        delta_pct = (ratio - 1) * 100
        tag = "REGRESS " if regressed else "ok      "
        line = (f"{tag} {name}: {base_val:.4g} -> {cur_val:.4g} "
                f"({delta_pct:+.1f}%)")
        if regressed:
            failures.append(line)
        else:
            print(line)
    # A measured metric with no baseline entry fails too: otherwise a
    # key quietly dropped from the baseline file exempts that metric
    # from the gate forever. Record new benches with --update in the
    # same change that adds them.
    for name in sorted(set(cur) - set(base)):
        failures.append(
            f"UNBASED  {name}: {cur[name][0]:.4g} present in run but "
            "missing from baseline (record it with --update)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional regression of a "
                             "google-benchmark metric "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--update", action="store_true",
                        help="overwrite the baseline with the current "
                             "results instead of comparing")
    args = parser.parse_args()

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"updated {args.baseline} from {args.current}")
        return 0

    try:
        baseline = load(args.baseline)
    except FileNotFoundError:
        # A silently-skipped comparison reads as a pass in CI, which is
        # exactly how a perf gate rots: fail loudly instead.
        print(f"ERROR    no baseline at {args.baseline}; refusing to "
              "skip the comparison (record one with --update)",
              file=sys.stderr)
        return 1

    failures = compare(baseline, load(args.current), args.threshold)
    if failures:
        print(f"\n{len(failures)} regression(s) vs baseline:",
              file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        return 1
    print("\nno regression vs baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
