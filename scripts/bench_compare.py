#!/usr/bin/env python3
"""Compare two nowlb-bench reports and fail on perf regressions.

Usage:
  bench_compare.py --baseline OLD.json --current NEW.json [--threshold 0.15]
  bench_compare.py --baseline B1.json --current C1.json \
                   --baseline B2.json --current C2.json ...   # pairs
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

Given several --baseline/--current pairs (paired by position, e.g. rounds
that alternate which side runs first), each pair is compared as above,
and a benchmark is REGRESSED or OVERLIMIT only when that rule fires in a
majority of the pairs (two of three); in fewer it prints as noisy. A
benchmark MISSING from any current report fails. One pair is the plain
comparison.

Exit status: 0 clean, 1 regression(s), 2 usage/schema error.
"""

import argparse
import collections
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
    """The report at `path`; exits 2 when it is missing, not a JSON object,
    or of another schema."""
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:  # ValueError: not JSON, not UTF-8
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    version = report.get("schema_version") if isinstance(report, dict) else None
    if version != EXPECTED_SCHEMA:
        print(
            f"bench_compare: {path}: schema_version {version!r} != "
            f"{EXPECTED_SCHEMA}; refusing to compare across schemas",
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
    for name in over_limits(current):
        regressions.append(name)
        lines.append(f"  OVERLIMIT {name}: median {cur[name]['median']:.6g} "
                     f"exceeds absolute ceiling {ABS_LIMITS[name]:.6g}")
    return regressions, lines


def over_limits(current):
    """Names of the benchmarks whose median in `current` is above their
    absolute ceiling."""
    cur = {b["name"]: b for b in current["benchmarks"]}
    return [name for name in sorted(ABS_LIMITS)
            if name in cur and cur[name]["median"] > ABS_LIMITS[name]]


def compare_pairs(pairs, threshold):
    """Return (regressions, lines) over (baseline, current) report pairs: a
    benchmark fails when it is missing from any current report, or when
    compare() regresses it, or finds it over its ceiling, in a majority of
    the pairs. One pair is compare() itself."""
    if len(pairs) == 1:
        return compare(*pairs[0], threshold)
    need = len(pairs) // 2 + 1
    fired = collections.Counter()  # (kind, name) -> pairs it fired in
    missing = set()
    lines = []
    for k, (baseline, current) in enumerate(pairs, 1):
        regressions, pair_lines = compare(baseline, current, threshold)
        lines.append(f" pair {k}:")
        lines.extend(pair_lines)
        present = {b["name"] for b in current["benchmarks"]}
        over = set(over_limits(current))
        for name in set(regressions):
            if name not in present:
                missing.add(name)
                continue
            # compare() lists a name once per rule that fired for it.
            if name in over:
                fired["OVERLIMIT", name] += 1
            if regressions.count(name) > (name in over):
                fired["REGRESSED", name] += 1
    failed = sorted(missing)
    verdict = [f"  MISSING   {name}: missing from a current report"
               for name in sorted(missing)]
    for (kind, name), n in sorted(fired.items(), key=lambda kv: kv[0][::-1]):
        if n >= need:
            failed.append(name)
            verdict.append(f"  {kind:<9} {name}: in {n} of {len(pairs)} pairs")
        else:
            verdict.append(f"  noisy     {name}: {kind} in {n} of "
                           f"{len(pairs)} pairs only")
    if verdict:
        lines.append(f" over {len(pairs)} pairs (a regression must fire in "
                     f"{need}):")
        lines.extend(verdict)
    return failed, lines


def run_compare(args):
    pairs = []
    for base_path, cur_path in zip(args.baseline, args.current):
        pairs.append((load_report(base_path), load_report(cur_path)))
        print(f"bench_compare: {base_path} -> {cur_path} "
              f"(threshold {args.threshold:.0%})")
    regressions, lines = compare_pairs(pairs, args.threshold)
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

    # 9. Over three pairs, a regression in one pair only is noise: it
    #    passes and prints as noisy, as does one pair over a ceiling.
    taxed["benchmarks"][-1]["median"] = 1.2
    regs, lines = compare_pairs([(base, bad), (base, ok), (base, taxed)],
                                0.15)
    assert regs == [], regs
    for noisy in ("thru: REGRESSED in 1 of 3", "wall: REGRESSED in 1 of 3",
                  "obs.overhead: OVERLIMIT in 1 of 3"):
        assert f"  noisy     {noisy} pairs only" in lines, lines

    # 10. A regression in two of three pairs fails; so does a benchmark
    #     missing from one current report.
    regs, lines = compare_pairs([(base, bad), (base, ok), (base, bad)],
                                0.15)
    assert regs == ["thru", "wall"], regs
    assert any(l.startswith("  REGRESSED thru: in 2 of 3") for l in lines), \
        lines
    regs, _ = compare_pairs([(base, ok), (base, partial), (base, ok)], 0.15)
    assert regs == ["wall"], regs

    print("bench_compare: self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", action="append", default=[],
                    help="baseline report (repeat for several pairs)")
    ap.add_argument("--current", action="append", default=[],
                    help="report to check (paired with the --baseline "
                    "in the same position)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed relative median drift (default 0.15)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the comparator's own unit checks and exit")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not (args.baseline and args.current):
        ap.error("--baseline and --current are required (or use --self-test)")
    if len(args.baseline) != len(args.current):
        ap.error(f"{len(args.baseline)} --baseline but {len(args.current)} "
                 "--current reports: they compare in pairs")
    sys.exit(run_compare(args))


if __name__ == "__main__":
    main()
