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

Gated ratios (each "X_vs_scalar" is ns/op of X over ns/op of scalar/plain):
  batched_vs_scalar, strided_vs_scalar, writerun_vs_scalar — the fast path
  must stay fast relative to the scalar walk;
  traced_overhead_{scalar,batched}, profiled_overhead_{scalar,batched} —
  observation hooks must stay hoisted out of the inner loop;
  fig2_cal_vs_scalar — end-to-end probe: fig2-cal wall seconds divided by
  scalar ns/op, i.e. the experiment's cost in equivalent scalar accesses;
  serve_vs_scalar — end-to-end probe of the open-loop serving experiment
  (fixed Tiny stream), normalized the same way. Present only when the
  bench output includes BenchmarkServe;
  adapt_overhead_vs_off — the placement orchestrator's fixed cost: the
  adapt steady cell with the daemon attached over the same cell without
  it. Present only when the bench output includes
  BenchmarkOrchestratorOverhead;
  spans_overhead_vs_off — request-span collection cost: the serving
  experiment's fixed Tiny stream with span assembly on over the same
  stream with it off. Span collection is observation-only in simulated
  time, so this ratio is pure harness bookkeeping. Present only when the
  bench output includes BenchmarkServeSpans;
  mpsm_vs_hashjoin — the NUMA-aware MPSM sort-merge join over the
  flowchart-tuned hash join on identical fixed tables: both sides run
  the same simulator access path, so the ratio transfers across host
  CPUs. Present only when the bench output includes BenchmarkMPSMJoin;
  chunked_scan_vs_single — the TPC-H Q1 scan on per-node chunked storage
  over the same scan on a single region, identical knobs. Present only
  when the bench output includes BenchmarkChunkedScan.
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


def ratios(ns, fig2_seconds):
    """Derive the gated ratios from raw ns/op numbers."""
    def get(name):
        key = "BenchmarkAccessPath/" + name
        if key not in ns:
            sys.exit(f"bench_gate: missing {key} in bench output")
        return ns[key]

    if fig2_seconds is None and "BenchmarkAccessPathFig2Cal" in ns:
        fig2_seconds = ns["BenchmarkAccessPathFig2Cal"] / 1e9
    scalar = get("scalar/plain")
    r = {
        "batched_vs_scalar": get("batched/plain") / scalar,
        "strided_vs_scalar": get("strided/plain") / scalar,
        "traced_overhead_scalar": get("scalar/traced") / scalar,
        "traced_overhead_batched": get("batched/traced") / get("batched/plain"),
        "profiled_overhead_scalar": get("scalar/profiled") / scalar,
        "profiled_overhead_batched": get("batched/profiled") / get("batched/plain"),
    }
    if "BenchmarkAccessPathWriteRun" in ns:
        r["writerun_vs_scalar"] = ns["BenchmarkAccessPathWriteRun"] / scalar
    if "BenchmarkServe" in ns:
        # The serving probe runs a fixed Tiny stream, so its ns/op over the
        # scalar path is a machine-independent end-to-end serving cost.
        r["serve_vs_scalar"] = ns["BenchmarkServe"] / scalar
    on = ns.get("BenchmarkOrchestratorOverhead/on")
    off = ns.get("BenchmarkOrchestratorOverhead/off")
    if on is not None and off is not None:
        # Same workload with and without the orchestrator attached: the
        # ratio is the daemon's observation-and-planning overhead and must
        # stay near 1.
        r["adapt_overhead_vs_off"] = on / off
    son = ns.get("BenchmarkServeSpans/on")
    soff = ns.get("BenchmarkServeSpans/off")
    if son is not None and soff is not None:
        # Same serving stream with and without span assembly: simulated
        # time is bit-identical either way, so the ratio is the harness's
        # span-bookkeeping cost and must stay bounded.
        r["spans_overhead_vs_off"] = son / soff
    hj = ns.get("BenchmarkMPSMJoin/hashjoin")
    mp = ns.get("BenchmarkMPSMJoin/mpsm")
    if hj is not None and mp is not None:
        # NUMA-aware sort-merge join vs the tuned hash join on identical
        # fixed tables: a regression to either operator's simulated-work
        # shape moves this ratio.
        r["mpsm_vs_hashjoin"] = mp / hj
    ss = ns.get("BenchmarkChunkedScan/single")
    cs = ns.get("BenchmarkChunkedScan/chunked")
    if ss is not None and cs is not None:
        # Per-node chunked storage vs single-region for the same scan:
        # chunked must keep its batched, extent-resolved access pattern.
        r["chunked_scan_vs_single"] = cs / ss
    if fig2_seconds is not None:
        # Seconds -> ns, over ns per scalar access: the probe's cost in
        # units of "scalar accesses", which transfers across machines.
        r["fig2_cal_vs_scalar"] = fig2_seconds * 1e9 / scalar
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
