#!/usr/bin/env python3
"""Benchmark-regression gate for the simulator's memory-access fast path.

Parses `go test -bench BenchmarkAccessPath` output and gates on performance
RATIOS (batched vs scalar, hook overheads, and the fig2-cal probe normalized
by the scalar path), not raw ns/op: ratios are stable across host CPUs, so a
baseline committed from one machine remains meaningful on CI runners.
Absolute ns/op numbers are carried along as informational context only.

Usage:
  bench_gate.py baseline bench_out.txt [--fig2-seconds S] > BENCH_pr5.json
      Parse a bench run into a committed baseline. The fig2-cal probe is
      taken from BenchmarkAccessPathFig2Cal in the bench output when
      present; --fig2-seconds overrides it.

  bench_gate.py compare BENCH_pr5.json bench_out.txt [--fig2-seconds S]
      [--threshold 0.10] [--out comparison.json]
      Compare a fresh bench run against the baseline. Exits 1 if any gated
      ratio moved more than threshold (relative), printing a table either
      way and writing the comparison (for the CI artifact) when --out is
      given.

Gated ratios: each row of RATIOS below is ns/op of one benchmark over ns/op
of another. Required rows need their probes in every bench run; the others
are computed only when the bench output includes both of their probes.
"""
import argparse
import json
import re
import sys

BENCH_LINE = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op")


def parse_bench(path):
    """Return {bench name: ns/op} from `go test -bench` output.

    With -count N the same benchmark appears N times; the minimum is kept
    (the least-perturbed measurement), which keeps the near-1.0 overhead
    ratios from tripping the gate on scheduler noise.
    """
    out = {}
    with open(path) as f:
        for line in f:
            m = BENCH_LINE.match(line.strip())
            if m:
                name, ns = m.group(1), float(m.group(2))
                out[name] = min(out.get(name, ns), ns)
    if not out:
        sys.exit(f"bench_gate: no benchmark lines found in {path}")
    return out


SCALAR = "BenchmarkAccessPath/scalar/plain"
BATCHED = "BenchmarkAccessPath/batched/plain"

# (ratio, numerator, denominator, required).
RATIOS = [
    # The fast path must stay fast relative to the scalar walk.
    ("batched_vs_scalar", BATCHED, SCALAR, True),
    ("strided_vs_scalar", "BenchmarkAccessPath/strided/plain", SCALAR, True),
    ("writerun_vs_scalar", "BenchmarkAccessPathWriteRun", SCALAR, False),
    # Observation hooks must stay hoisted out of the inner loop.
    ("traced_overhead_scalar", "BenchmarkAccessPath/scalar/traced", SCALAR, True),
    ("traced_overhead_batched", "BenchmarkAccessPath/batched/traced", BATCHED, True),
    ("profiled_overhead_scalar", "BenchmarkAccessPath/scalar/profiled", SCALAR, True),
    ("profiled_overhead_batched", "BenchmarkAccessPath/batched/profiled", BATCHED, True),
    # End-to-end probes over the scalar path: each probe's cost in
    # equivalent scalar accesses, which transfers across machines. fig2-cal
    # wall time may also come from --fig2-seconds; the serving probe runs a
    # fixed Tiny stream.
    ("fig2_cal_vs_scalar", "BenchmarkAccessPathFig2Cal", SCALAR, False),
    ("serve_vs_scalar", "BenchmarkServe", SCALAR, False),
    # Same adapt steady cell with and without the placement orchestrator:
    # the daemon's observation-and-planning overhead, which must stay near 1.
    ("adapt_overhead_vs_off", "BenchmarkOrchestratorOverhead/on",
     "BenchmarkOrchestratorOverhead/off", False),
    # Same serving stream with and without span assembly: simulated time is
    # bit-identical either way, so this is pure harness bookkeeping.
    ("spans_overhead_vs_off", "BenchmarkServeSpans/on", "BenchmarkServeSpans/off", False),
    # NUMA-aware MPSM sort-merge join over the flowchart-tuned hash join on
    # identical fixed tables: both run the same simulator access path.
    ("mpsm_vs_hashjoin", "BenchmarkMPSMJoin/mpsm", "BenchmarkMPSMJoin/hashjoin", False),
    # TPC-H Q1 scan on per-node chunked storage over a single region, same
    # knobs: chunked must keep its batched, extent-resolved access pattern.
    ("chunked_scan_vs_single", "BenchmarkChunkedScan/chunked",
     "BenchmarkChunkedScan/single", False),
]


def ratios(ns, fig2_seconds):
    """Derive the gated ratios from raw ns/op numbers."""
    if fig2_seconds is not None:
        ns = dict(ns, BenchmarkAccessPathFig2Cal=fig2_seconds * 1e9)
    r = {}
    for name, num, den, required in RATIOS:
        missing = [k for k in (num, den) if k not in ns]
        if missing and required:
            sys.exit(f"bench_gate: missing {missing[0]} in bench output")
        if not missing:
            r[name] = ns[num] / ns[den]
    return {k: round(v, 4) for k, v in sorted(r.items())}


def cmd_baseline(args):
    ns = parse_bench(args.bench_out)
    doc = {
        "schema": "repro/bench-gate/v1",
        "gated_ratios": ratios(ns, args.fig2_seconds),
        "info_ns_per_op": {k: ns[k] for k in sorted(ns)},
    }
    if args.fig2_seconds is not None:
        doc["info_fig2_cal_seconds"] = args.fig2_seconds
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_compare(args):
    with open(args.baseline) as f:
        base = json.load(f)
    if base.get("schema") != "repro/bench-gate/v1":
        sys.exit(f"bench_gate: {args.baseline} is not a bench-gate baseline")
    ns = parse_bench(args.bench_out)
    cur = ratios(ns, args.fig2_seconds)
    baseline = base["gated_ratios"]

    rows = []
    failed = []
    for key in sorted(baseline):
        if key not in cur:
            # A probe present in the baseline but not supplied now (e.g. no
            # --fig2-seconds) is skipped, not failed: partial local runs of
            # the gate stay useful.
            rows.append((key, baseline[key], None, None, "skip"))
            continue
        b, c = baseline[key], cur[key]
        delta = c / b - 1
        status = "ok" if abs(delta) <= args.threshold else "FAIL"
        if status == "FAIL":
            failed.append(key)
        rows.append((key, b, c, delta, status))
    for key in sorted(set(cur) - set(baseline)):
        rows.append((key, None, cur[key], None, "new"))

    width = max(len(r[0]) for r in rows)
    print(f"{'ratio':<{width}}  {'baseline':>9}  {'current':>9}  {'delta':>7}  status")
    for key, b, c, delta, status in rows:
        bs = f"{b:9.4f}" if b is not None else "        -"
        cs = f"{c:9.4f}" if c is not None else "        -"
        ds = f"{delta:+6.1%}" if delta is not None else "      -"
        print(f"{key:<{width}}  {bs}  {cs}  {ds}  {status}")

    if args.out:
        doc = {
            "schema": "repro/bench-gate-compare/v1",
            "threshold": args.threshold,
            "baseline_ratios": baseline,
            "current_ratios": cur,
            "current_ns_per_op": {k: ns[k] for k in sorted(ns)},
            "failed": failed,
        }
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")

    if failed:
        print(f"\nbench_gate: FAIL — {len(failed)} ratio(s) moved more than "
              f"{args.threshold:.0%}: {', '.join(failed)}", file=sys.stderr)
        sys.exit(1)
    print(f"\nbench_gate: ok — all gated ratios within {args.threshold:.0%}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("baseline", help="emit a baseline JSON from bench output")
    b.add_argument("bench_out")
    b.add_argument("--fig2-seconds", type=float, default=None)
    b.set_defaults(func=cmd_baseline)

    c = sub.add_parser("compare", help="gate bench output against a baseline")
    c.add_argument("baseline")
    c.add_argument("bench_out")
    c.add_argument("--fig2-seconds", type=float, default=None)
    c.add_argument("--threshold", type=float, default=0.10)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_compare)

    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
