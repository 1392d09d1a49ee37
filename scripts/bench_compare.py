#!/usr/bin/env python3
"""Compare two nowlb-bench reports and fail on perf regressions.

Usage:
  bench_compare.py --baseline OLD.json --current NEW.json [--threshold 0.15]
  bench_compare.py --self-test                   # exercise the comparator

Both reports should come from one host, e.g. the base commit's and the
change's `nowlb-bench --quick` runs on one CI runner. A benchmark
regresses when its median moves against its direction by more than
--threshold (default 15%): below baseline*(1-t) for throughput benchmarks
(higher_is_better), above baseline*(1+t) for wall-time benchmarks. To stay
robust against one-sided scheduler noise (a loaded host only ever slows
samples down), the current report's *best* sample must also be beyond the
threshold: a genuine regression shifts the whole distribution, noise
spikes do not.

Benchmarks present in the baseline but missing from the current report are
regressions too — the gate must not silently lose coverage. New
benchmarks in the current report are reported but never fail.

Exit status: 0 clean, 1 regression(s), 2 usage/schema error.
"""

import argparse
import json
import sys

EXPECTED_SCHEMA = 1

# Absolute ceilings checked against the *current* report regardless of any
# baseline: these quantities have a budget, not just a trajectory. The
# flight recorder's wall-time tax (instrumented/plain ratio) must stay
# within 5%.
ABS_LIMITS = {
    "obs.overhead": 1.05,
}


def load_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    if report.get("schema_version") != EXPECTED_SCHEMA:
        print(
            f"bench_compare: {path}: schema_version "
            f"{report.get('schema_version')!r} != {EXPECTED_SCHEMA}; refusing "
            "to compare across schemas",
            file=sys.stderr,
        )
        sys.exit(2)
    return report


def compare(baseline, current, threshold):
    """Return (regressions, lines): failed names and a full report."""
    base = {b["name"]: b for b in baseline["benchmarks"]}
    cur = {b["name"]: b for b in current["benchmarks"]}
    regressions = []
    lines = []
    for name in sorted(base):
        b = base[name]
        if name not in cur:
            regressions.append(name)
            lines.append(f"  MISSING   {name}: in baseline but not in current")
            continue
        c = cur[name]
        higher = bool(b.get("higher_is_better", True))
        old, new = b["median"], c["median"]
        if old == 0:
            lines.append(f"  SKIP      {name}: baseline median is 0")
            continue
        change = (new - old) / old
        direction = change if higher else -change
        samples = c.get("samples") or [new]
        best = max(samples) if higher else min(samples)
        best_direction = (best - old) / old * (1 if higher else -1)
        arrow = f"{change:+7.1%} ({old:.6g} -> {new:.6g} {b.get('unit', '')})"
        if direction < -threshold and best_direction < -threshold:
            regressions.append(name)
            lines.append(f"  REGRESSED {name}: {arrow}")
        elif direction < -threshold:
            lines.append(f"  noisy     {name}: {arrow}, but best sample "
                         f"{best:.6g} is within threshold")
        elif direction > threshold:
            lines.append(f"  IMPROVED  {name}: {arrow}")
        else:
            lines.append(f"  ok        {name}: {arrow}")
    for name in sorted(set(cur) - set(base)):
        lines.append(f"  NEW       {name}: no baseline yet")
    for name in sorted(ABS_LIMITS):
        if name not in cur:
            continue
        limit = ABS_LIMITS[name]
        median = cur[name]["median"]
        if median > limit:
            regressions.append(name)
            lines.append(f"  OVERLIMIT {name}: median {median:.6g} exceeds "
                         f"absolute ceiling {limit:.6g}")
    return regressions, lines


def run_compare(args):
    baseline = load_report(args.baseline)
    current = load_report(args.current)
    print(f"bench_compare: {args.baseline} -> {args.current} "
          f"(threshold {args.threshold:.0%})")
    regressions, lines = compare(baseline, current, args.threshold)
    print("\n".join(lines))
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s): "
              + ", ".join(regressions), file=sys.stderr)
        return 1
    print("bench_compare: no regressions")
    return 0


def self_test():
    """Doctored-report cases pinning the comparator's behaviour."""
    def report(**medians):
        benchmarks = []
        for name, (median, higher) in medians.items():
            benchmarks.append({
                "name": name,
                "unit": "x/s" if higher else "s",
                "higher_is_better": higher,
                "median": median,
                "samples": [median],
            })
        return {"schema_version": EXPECTED_SCHEMA, "benchmarks": benchmarks}

    base = report(thru=(100.0, True), wall=(2.0, False))

    # 1. >15% throughput drop and >15% wall-time growth both regress.
    bad = report(thru=(80.0, True), wall=(2.5, False))
    regs, _ = compare(base, bad, 0.15)
    assert regs == ["thru", "wall"], regs

    # 2. Changes inside the threshold pass in both directions.
    ok = report(thru=(90.0, True), wall=(2.2, False))
    regs, _ = compare(base, ok, 0.15)
    assert regs == [], regs

    # 3. Large improvements never fail (direction-aware).
    better = report(thru=(200.0, True), wall=(1.0, False))
    regs, lines = compare(base, better, 0.15)
    assert regs == [], regs
    assert sum("IMPROVED" in l for l in lines) == 2, lines

    # 4. A benchmark dropped from the current report is a regression.
    partial = report(thru=(100.0, True))
    regs, _ = compare(base, partial, 0.15)
    assert regs == ["wall"], regs

    # 5. New benchmarks are reported but never fail.
    grown = report(thru=(100.0, True), wall=(2.0, False), fresh=(1.0, True))
    regs, lines = compare(base, grown, 0.15)
    assert regs == [], regs
    assert any("NEW" in l for l in lines), lines

    # 6. Exactly at the threshold is not a regression (strict inequality).
    edge = report(thru=(85.0, True), wall=(2.3, False))
    regs, _ = compare(base, edge, 0.15)
    assert regs == [], regs

    # 7. A regressed median is excused when the best sample is healthy
    #    (one-sided noise), but not when every sample regressed.
    noisy = report(thru=(70.0, True), wall=(3.0, False))
    noisy["benchmarks"][0]["samples"] = [70.0, 99.0]   # best is fine
    noisy["benchmarks"][1]["samples"] = [3.0, 2.9]     # all beyond
    regs, lines = compare(base, noisy, 0.15)
    assert regs == ["wall"], regs
    assert any("noisy" in l for l in lines), lines

    # 8. Absolute ceilings bind even when the trajectory looks fine (and
    #    even for benchmarks with no baseline at all).
    taxed = report(thru=(100.0, True), wall=(2.0, False))
    taxed["benchmarks"].append({
        "name": "obs.overhead", "unit": "x", "higher_is_better": False,
        "median": 1.2, "samples": [1.2],
    })
    regs, lines = compare(base, taxed, 0.15)
    assert regs == ["obs.overhead"], regs
    assert any("OVERLIMIT" in l for l in lines), lines
    taxed["benchmarks"][-1]["median"] = 1.03
    regs, _ = compare(base, taxed, 0.15)
    assert regs == [], regs

    print("bench_compare: self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="baseline report")
    ap.add_argument("--current", help="report to check")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed relative median drift (default 0.15)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the comparator's own unit checks and exit")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not (args.baseline and args.current):
        ap.error("--baseline and --current are required (or use --self-test)")
    sys.exit(run_compare(args))


if __name__ == "__main__":
    main()
