// Command perfbench is the repository's benchmark. It drives the
// simulator's layers through their public functions on one of three
// closed-loop workloads, checks every output against a reference, and
// prints host time, set-up time and peak memory (untraced run) or the
// per-layer metrics (traced run) as one JSON object on the last line of
// standard output. README.md beside this file maps every metric to the
// layer it measures.
//
//	go run . --workload paper-grid --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupReps is how many times a run repeats its workload's set-up; setup_s
// reports the median, so one slow set-up does not move it.
const setupReps = 15

// run parses the command line, measures one workload and prints the
// result. It returns the process exit code: 2 for usage errors, 1 when
// the workload could not run, 0 otherwise (failed checks are reported in
// the result, not by the exit code).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 30, "length of the timed phase in host seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	scale := fs.String("scale", "cal", "input sizes: cal (the measured benchmark) or tiny (smoke tests)")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans and self-time table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	z, ok := sizesByName(*scale)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown scale %q (have cal, tiny)\n", *scale)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	traced := *traceFlag == 1
	budget := time.Duration(*seconds * float64(time.Second))

	res, err := measure(w, z, *seed, budget, traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	var metrics []metric
	if traced {
		metrics = res.layerMetrics()
		if err := res.writeTrace(*outDir, w.name, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res.tr.writeSelfTime(stderr)
	} else {
		metrics = res.endToEndMetrics()
	}
	printSummary(stderr, w.name, res, metrics)
	fmt.Fprintf(stdout, "digest %s %016x\n", w.name, res.digest)
	fmt.Fprintf(stdout, "ops_failed %d/%d ops\n", res.failed, res.attempted)
	return printResult(stdout, res, metrics)
}

// runResult is everything one run measured.
type runResult struct {
	setupS      []float64   // host seconds of each set-up repetition
	walls       []float64   // host seconds of each untraced pass
	cellWalls   [][]float64 // host seconds of each cell, per untraced pass
	tracedWalls []float64   // host seconds of each traced pass
	attempted   int
	failed      int
	digest      uint64 // simulated-output digest of the first pass
	exact       counts // exact per-layer counts of the first pass
	peakRSSMiB  float64
	tr          *tracer // nil in an untraced run
}

// measure sets the workload up setupReps times, then runs passes of its
// cells back to back until the budget is spent, ending as close to it as
// whole passes allow. A traced run alternates untraced and traced passes,
// so the tracing overhead is measured within the same process; it runs at
// least one of each.
func measure(w workload, z sizes, seed uint64, budget time.Duration, traced bool) (*runResult, error) {
	res := &runResult{}
	if traced {
		res.tr = newTracer()
	}
	var cells []cell
	for rep := 0; rep < setupReps; rep++ {
		res.tr.setPass(-1)
		start := time.Now()
		var err error
		cells, err = w.setup(res.tr, z, seed, rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}

	minPasses := 1
	if traced {
		minPasses = 2
	}
	var cellDigests []uint64
	start := time.Now()
	for pass := 0; ; pass++ {
		var tr *tracer
		if traced && pass%2 == 1 {
			tr = res.tr
			tr.setPass(pass)
		}
		out, wall := runPass(tr, cells, pass == 0)
		if tr != nil {
			res.tracedWalls = append(res.tracedWalls, wall)
		} else {
			res.walls = append(res.walls, wall)
			cw := make([]float64, len(out))
			for i, o := range out {
				cw[i] = o.wall
			}
			res.cellWalls = append(res.cellWalls, cw)
		}
		for i, c := range out {
			res.attempted += c.ops
			res.failed += c.failed
			if pass == 0 {
				cellDigests = append(cellDigests, c.digest)
			} else if c.digest != cellDigests[i] && c.failed < c.ops {
				// The simulator is deterministic: a cell whose output
				// differs from its first pass failed, whatever its checks
				// said.
				res.failed += c.ops - c.failed
			}
		}
		if pass == 0 {
			res.digest, res.exact = passDigest(out), passCounts(out)
		}
		// Stop when the next pass, predicted to take as long as this one,
		// would end further past the budget than stopping now falls short.
		elapsed := time.Since(start)
		next := time.Duration(wall * float64(time.Second))
		if pass+1 >= minPasses && elapsed+next/2 > budget {
			break
		}
	}
	res.peakRSSMiB = peakRSSMiB()
	return res, nil
}

// runPass runs every cell once and returns their outputs and the pass's
// host wall seconds. With verify set it also runs the cells' verify
// checks, outside the timed wall: the simulator is deterministic, so one
// verified pass vouches for every later pass with the same digests.
func runPass(tr *tracer, cells []cell, verify bool) ([]*cellOut, float64) {
	tr.passBegin()
	var wall time.Duration
	outs := make([]*cellOut, len(cells))
	for i, c := range cells {
		o := newCellOut(c.name)
		tr.setCell(c.name)
		start := time.Now()
		c.run(tr, o)
		d := time.Since(start)
		o.wall = d.Seconds()
		wall += d
		if verify && o.verify != nil && !o.verify() {
			o.failed = o.ops
		}
		o.verify = nil
		o.digest = o.h.sum()
		outs[i] = o
	}
	tr.passEnd(wall.Seconds())
	return outs, wall.Seconds()
}

// peakRSSMiB is the process's peak resident set (getrusage maxrss, which
// Linux reports in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// metric is one named, unit-carrying value of the result line.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEndMetrics are the untraced run's metrics; BENCHMARK.json lists
// them under end_to_end.
func (r *runResult) endToEndMetrics() []metric {
	return []metric{
		{"wall_s", r.passWall(), "s"},
		{"setup_s", median(r.setupS), "s"},
		{"peak_rss_mb", r.peakRSSMiB, "MiB"},
	}
}

// passWall estimates one untraced pass's host seconds as the sum over
// cells of each cell's median time, so a host hiccup during one cell of
// one pass does not move it.
func (r *runResult) passWall() float64 {
	if len(r.cellWalls) == 0 {
		return 0
	}
	total := 0.0
	for i := range r.cellWalls[0] {
		var xs []float64
		for _, cw := range r.cellWalls {
			xs = append(xs, cw[i])
		}
		total += median(xs)
	}
	return total
}

// printResult writes the result object as the last line of stdout.
func printResult(w io.Writer, r *runResult, metrics []metric) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}

// printSummary writes a human-readable table of the run to w.
func printSummary(w io.Writer, name string, r *runResult, metrics []metric) {
	fmt.Fprintf(w, "%s: untraced passes %v (median %.3fs), traced passes %v, set-ups %v\n",
		name, roundAll(r.walls), median(r.walls), roundAll(r.tracedWalls), roundAll(r.setupS))
	ms := append([]metric(nil), metrics...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3fs", x)
	}
	return out
}
