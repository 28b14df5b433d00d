// Command tpchbench runs the W5 TPC-H workload on the simulated database
// engines: all 22 queries (or a selection) under the OS default and the
// paper's tuned configuration, reporting per-query latency reductions
// (Figure 8), or a single engine's latencies per allocator (Figure 9
// style).
//
// Independent harness runs (one per engine profile and configuration, or
// one per allocator) are dispatched through the core worker pool; results
// are identical for any -parallel setting because each harness owns its
// machine and engine state.
//
// Usage:
//
//	tpchbench -sf 0.005                       # Figure 8 on all engines
//	tpchbench -sf 0.005 -parallel 4           # same tables, less wall time
//	tpchbench -sf 0.005 -engine MonetDB -q 5,18 -allocators
//	tpchbench -sf 0.005 -chunked              # per-node chunked column storage
//	tpchbench -sf 0.005 -json results.jsonl   # one record per harness run
//	tpchbench -sf 0.005 -trace trace.json     # Chrome trace per harness
//	tpchbench -validate results.jsonl
//
// The output flags are shared with numabench (same names, same formats;
// see internal/cli): -json appends one structured record per harness run
// (schema repro/bench/v2, validate with either command's -validate),
// -trace writes a Chrome trace-event file with one process per harness
// run (records carry a storage label when -chunked is set), -spans writes one request+service span per measured query (schema
// repro/spans/v1, observation-only — walls are bit-identical with it on
// or off), and -cpuprofile/-memprofile capture host pprof profiles.
// Per-query wall cycles land in the record's extra map as q1..q22.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hash/fnv"

	"repro/internal/alloc"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/span"
	"repro/internal/tpch"
	"repro/internal/vmm"
	"repro/internal/xrand"
)

// harnessRecord builds the JSONL record for one completed harness run.
// The harness machine is read after all queries, so counters cover the
// whole run; wall is the sum of the measured query walls.
func harnessRecord(start time.Time, cell string, labels map[string]string,
	h *tpch.Harness, cfg machine.RunConfig, queries []int, walls []float64) experiments.Record {
	m := h.Engine.M
	wall := 0.0
	extra := make(map[string]float64, len(queries))
	for i, q := range queries {
		wall += walls[i]
		extra["q"+strconv.Itoa(q)] = walls[i]
	}
	return experiments.Record{
		Schema:     experiments.SchemaVersion,
		Experiment: "tpchbench",
		Cell:       cell,
		Labels:     labels,
		Machine:    m.Spec.Name,
		Config:     experiments.ConfigOf(cfg),
		Seed:       cfg.Seed,
		WallCycles: wall,
		FreqGHz:    m.Spec.FreqGHz,
		Counters:   m.Counters(),
		Extra:      extra,
		HostNS:     time.Since(start).Nanoseconds(),
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpchbench:", err)
	os.Exit(1)
}

func main() {
	sf := flag.Float64("sf", 0.002, "TPC-H scale factor")
	engine := flag.String("engine", "", "restrict to one engine profile")
	queriesFlag := flag.String("q", "", "comma-separated query numbers (default: all 22)")
	allocators := flag.Bool("allocators", false, "sweep allocators instead of default-vs-tuned (needs -engine)")
	warm := flag.Int("warm", 2, "warm runs per query")
	chunked := flag.Bool("chunked", false, "per-node chunked column storage (internal/numaop) instead of single-region")
	seed := flag.Uint64("seed", 41, "dataset seed")
	parallel := flag.Int("parallel", 1, "harness worker count (0 = GOMAXPROCS); output is identical to -parallel 1")
	progress := flag.Bool("progress", false, "report harness progress on stderr")
	var shared cli.Flags
	shared.Register(flag.CommandLine)
	flag.Parse()

	if done, err := shared.HandleValidate(os.Stdout); done {
		if err != nil {
			fatal(err)
		}
		return
	}

	queries, err := parseQueries(*queriesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpchbench:", err)
		os.Exit(2)
	}
	stopProfiles, err := shared.StartHostProfiles()
	if err != nil {
		fatal(err)
	}
	runner := core.Runner{Workers: *parallel}
	if *progress {
		runner.Progress = core.ProgressWriter(os.Stderr, "tpchbench", 0)
	}
	db := tpch.Generate(*sf, *seed)
	fmt.Fprintf(os.Stderr, "generated TPC-H SF %v: %d lineitems, %d orders\n",
		*sf, len(db.Lineitems), len(db.Orders))

	if *allocators {
		if *engine == "" {
			fmt.Fprintln(os.Stderr, "tpchbench: -allocators requires -engine")
			os.Exit(2)
		}
		if err := sweepAllocators(runner, db, *engine, queries, *warm, storage(*chunked), shared); err != nil {
			fatal(err)
		}
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
		return
	}

	profiles := tpch.Profiles()
	if *engine != "" {
		profiles = []tpch.Profile{tpch.ProfileByName(*engine)}
	}
	tab := &report.Table{Title: "TPC-H latency reduction, tuned vs default (Machine A)"}
	tab.Header = []string{"query"}
	for _, p := range profiles {
		tab.Header = append(tab.Header, p.Name)
	}
	spec := machine.SpecA()
	// One cell per (profile, config): a harness caches engine state across
	// queries, so the harness run is the unit of parallelism.
	const configs = 2 // 0 = OS default, 1 = tuned
	cells, err := core.Collect(runner, len(profiles)*configs, func(i int) (harnessCell, error) {
		start := time.Now()
		p := profiles[i/configs]
		var cfg machine.RunConfig
		which := "tuned"
		if i%configs == 0 {
			cfg = machine.DefaultConfig(spec.HardwareThreads())
			cfg.Seed = 9
			which = "default"
		} else {
			cfg = machine.RunConfig{
				Threads:   spec.HardwareThreads(),
				Placement: machine.PlaceSparse,
				Policy:    vmm.FirstTouch,
				Allocator: "tbbmalloc",
				Seed:      1,
				THP:       p.Name == "DBMSx",
			}
		}
		return runHarness(start, spec, p, cfg, db, *warm, queries, storage(*chunked),
			p.Name+"/"+which, map[string]string{"engine": p.Name, "config": which},
			shared.Trace != "", shared.Spans != "")
	})
	if err != nil {
		fatal(err)
	}
	for qi, q := range queries {
		row := []any{"Q" + strconv.Itoa(q)}
		for pi := range profiles {
			d := cells[pi*configs].walls[qi]
			u := cells[pi*configs+1].walls[qi]
			row = append(row, report.Pct((d-u)/d))
		}
		tab.AddRow(row...)
	}
	tab.Render(os.Stdout)
	if err := writeOutputs(shared, cells); err != nil {
		fatal(err)
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
}

// harnessCell is one completed harness run: per-query walls, its JSONL
// record, (when -trace is on) its Chrome trace process, and (when -spans
// is on) its per-query request spans.
type harnessCell struct {
	walls  []float64
	rec    experiments.Record
	tp     report.TraceProcess
	traced bool
	spans  []span.Span
}

// cellLabel hashes a cell name to a span-id derivation label, so every
// harness cell draws its ids from a distinct stream of the same seed.
func cellLabel(cell string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(cell))
	return h.Sum64()
}

// storage maps the -chunked flag to engine storage options.
func storage(chunked bool) tpch.StorageOptions {
	return tpch.StorageOptions{Chunked: chunked}
}

// runHarness executes one harness configuration over the query list,
// optionally tracing its machine and assembling per-query spans.
func runHarness(start time.Time, spec machine.Spec, p tpch.Profile, cfg machine.RunConfig,
	db *tpch.DB, warm int, queries []int, opts tpch.StorageOptions, cell string, labels map[string]string,
	tracing, spansOn bool) (harnessCell, error) {
	h := tpch.NewHarnessStorage(spec, p, cfg, db, warm, opts)
	if opts.Chunked {
		labels["storage"] = "chunked"
	}
	if tracing {
		cli.AttachTrace(h.Engine.M)
	}
	var tel *machine.Telemetry
	var base *xrand.Rand
	if spansOn {
		// Spans imply profiling (bucket windows); observation-only, so the
		// measured walls are bit-identical with spans on or off.
		tel = h.Engine.M.Observe(machine.ObserveOptions{Spans: true})
		base = xrand.New(cfg.Seed).Derive(cellLabel(cell))
	}
	var c harnessCell
	out := make([]float64, 0, len(queries))
	for qi, q := range queries {
		var c0 float64
		var b0 []float64
		if spansOn {
			c0 = tel.Clock()
			b0 = tel.Profile().Totals()
		}
		w, _ := h.Measure(q)
		out = append(out, w)
		if spansOn {
			// One request span per query on the machine's global clock; the
			// window covers the cold run plus the warm runs. The service
			// child carries the window's bucket delta and the last warm
			// run's counters (RunQuery rescopes counters per run) — TPC-H
			// queries run on every hardware thread, so Thread is -1 and the
			// buckets aggregate all threads.
			c1 := tel.Clock()
			name := "q" + strconv.Itoa(q)
			r := base.Derive(uint64(qi))
			reqID := span.ID(r)
			c.spans = append(c.spans, span.Span{
				Cell: cell, ID: reqID, Kind: span.KindRequest, Name: name,
				Seq: qi, Thread: -1, Start: c0, End: c1,
			}, span.Span{
				Cell: cell, ID: span.ID(r), Parent: reqID, Kind: span.KindService,
				Name: name, Seq: qi, Thread: -1, Start: c0, End: c1,
				GStart:   c0,
				GEnd:     c1,
				Buckets:  span.BucketMap(span.BucketDelta(b0, tel.Profile().Totals())),
				Counters: span.CounterMap(tel.Counters()),
			})
		}
	}
	c.walls = out
	c.rec = harnessRecord(start, cell, labels, h, cfg, queries, out)
	if tracing {
		c.tp, c.traced = cli.TraceOf(cell, h.Engine.M)
	}
	return c, nil
}

// writeOutputs appends the cells' records to -json and writes the -trace
// file, in cell index order so output is parallelism-independent.
func writeOutputs(shared cli.Flags, cells []harnessCell) error {
	if shared.JSON != "" {
		recs := make([]experiments.Record, len(cells))
		for i := range cells {
			recs[i] = cells[i].rec
		}
		if err := cli.AppendJSONL(shared.JSON, recs); err != nil {
			return err
		}
	}
	if shared.Trace != "" {
		var procs []report.TraceProcess
		for i := range cells {
			if cells[i].traced {
				procs = append(procs, cells[i].tp)
			}
		}
		if err := cli.WriteChromeTrace(shared.Trace, procs); err != nil {
			return err
		}
	}
	if shared.Spans != "" {
		var spans []span.Span
		for i := range cells {
			spans = append(spans, cells[i].spans...)
		}
		if err := cli.WriteSpans(shared.Spans, spans); err != nil {
			return err
		}
	}
	return nil
}

func sweepAllocators(runner core.Runner, db *tpch.DB, engine string, queries []int, warm int, opts tpch.StorageOptions, shared cli.Flags) error {
	prof := tpch.ProfileByName(engine)
	spec := machine.SpecA()
	tab := &report.Table{Title: engine + " query latency by allocator (billion cycles)"}
	tab.Header = []string{"allocator"}
	for _, q := range queries {
		tab.Header = append(tab.Header, "Q"+strconv.Itoa(q))
	}
	names := alloc.WorkloadNames()
	cells, err := core.Collect(runner, len(names), func(i int) (harnessCell, error) {
		start := time.Now()
		cfg := machine.RunConfig{
			Threads:   spec.HardwareThreads(),
			Placement: machine.PlaceSparse,
			Policy:    vmm.FirstTouch,
			Allocator: names[i],
			Seed:      1,
		}
		return runHarness(start, spec, prof, cfg, db, warm, queries, opts,
			prof.Name+"/"+names[i], map[string]string{"engine": prof.Name, "allocator": names[i]},
			shared.Trace != "", shared.Spans != "")
	})
	if err != nil {
		return err
	}
	for i, name := range names {
		row := []any{name}
		for qi := range queries {
			row = append(row, report.Billions(cells[i].walls[qi]))
		}
		tab.AddRow(row...)
	}
	tab.Render(os.Stdout)
	return writeOutputs(shared, cells)
}

func parseQueries(s string) ([]int, error) {
	if s == "" {
		qs := make([]int, tpch.NumQueries)
		for i := range qs {
			qs[i] = i + 1
		}
		return qs, nil
	}
	var qs []int
	for _, part := range strings.Split(s, ",") {
		q, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || q < 1 || q > tpch.NumQueries {
			return nil, fmt.Errorf("bad query number %q", part)
		}
		qs = append(qs, q)
	}
	return qs, nil
}
