// Command numabench regenerates the paper's tables and figures on the NUMA
// simulator. Each experiment id maps to one artifact of the evaluation
// section; see DESIGN.md section 5 for the index.
//
// Usage:
//
//	numabench -experiment fig5a -scale small
//	numabench -experiment fig2,fig3,fig4 -scale tiny
//	numabench -experiment all -scale default -csv
//	numabench -experiment all -scale cal -parallel 4
//	numabench -experiment fig2 -scale tiny -json results.jsonl
//	numabench -experiment fig5a -scale tiny -trace trace.json
//	numabench -experiment profile -scale cal -breakdown -folded profile.folded
//	numabench -experiment serve -scale cal -serve-requests 2000 -serve-util 0.8
//	numabench -experiment serve -scale cal -spans spans.jsonl
//	numabench -experiment serve-adapt -scale cal -adapt-period 2e6
//	numabench -experiment numaware -scale cal
//	numabench -validate results.jsonl
//	numabench -validate spans.jsonl
//	numabench -list
//
// -json appends one JSONL record per grid cell (schema repro/bench/v2;
// see internal/experiments.SchemaVersion — the validator also accepts v1
// files written before the profiler existed). -trace additionally records
// every simulator event — thread migrations, page faults and migrations,
// hugepage collapses and splits, AutoNUMA scans, allocator stalls,
// coherence transfers — and writes a Chrome trace-event file loadable in
// Perfetto, with counter tracks from the periodic snapshots. -breakdown
// attaches the cycle-attribution profiler to every grid cell and prints
// each experiment's percentage-stacked component breakdown; -folded
// writes the same attribution as folded stacks (open in speedscope:
// Import > pick the file). -spans collects request-level spans from the
// serving experiments (session → request → queue-wait/service/phase,
// each with its profile-bucket and counter window) and writes them as
// repro/spans/v1 JSONL; -validate recognizes span files by their schema
// line. Span collection is observation-only: the measured results are
// bit-identical with it on or off. All of these are byte-identical for a
// fixed seed at any -parallel setting, except the host_ns field of JSONL
// records. -cpuprofile/-memprofile capture host pprof profiles of the
// simulator itself.
//
// Some experiments take extra knobs, carried as typed options through
// the registry (experiments.Options; -list shows which experiment reads
// which flags). The serve experiment takes -serve-requests (arrival
// stream length) and -serve-util (offered utilization, default 0.7 of
// the calibrated per-worker service capacity); the adapt experiment
// takes -adapt-period (orchestrator tick cadence in simulated cycles)
// and -adapt-budget (migration-cost budget fraction).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
)

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "numabench: %v\n", err)
	os.Exit(1)
}

func main() {
	var (
		exp        = flag.String("experiment", "", "comma-separated experiment ids (see -list) or 'all'")
		scale      = flag.String("scale", "small", "dataset scale: tiny, small, cal or default")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list       = flag.Bool("list", false, "list experiments (id, artifact, title) and exit")
		showTime   = flag.Bool("time", true, "print per-experiment elapsed wall time")
		parallel   = flag.Int("parallel", 1, "grid worker count (0 = GOMAXPROCS); output is identical to -parallel 1")
		progress   = flag.Bool("progress", false, "report grid cell progress on stderr")
		breakdown  = flag.Bool("breakdown", false, "attach the cycle profiler and print per-experiment component breakdowns")
		foldedPath = flag.String("folded", "", "attach the cycle profiler and write folded stacks (speedscope-loadable) to this file")
		serveReqs  = flag.Int("serve-requests", 0, "serve experiment: arrival stream length (0 = the scale's default)")
		serveUtil  = flag.Float64("serve-util", 0, "serve experiment: offered utilization the arrival rate targets (0 = 0.7)")
		adaptPer   = flag.Float64("adapt-period", 0, "adapt experiment: orchestrator tick period in simulated cycles (0 = default)")
		adaptBud   = flag.Float64("adapt-budget", 0, "adapt experiment: migration-cost budget fraction (0 = default)")
	)
	var shared cli.Flags
	shared.Register(flag.CommandLine)
	flag.Parse()

	if done, err := shared.HandleValidate(os.Stdout); done {
		if err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		for _, d := range experiments.Descriptors() {
			opts := ""
			if len(d.Options) > 0 {
				opts = " [-" + strings.Join(d.Options, " -") + "]"
			}
			fmt.Printf("%-12s %-18s %s%s\n", d.Id, d.Artifact, d.Title, opts)
		}
		return
	}
	s, err := cli.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "numabench: %v\n", err)
		os.Exit(2)
	}
	var todo []string
	switch *exp {
	case "":
		fmt.Fprintln(os.Stderr, "numabench: -experiment required (or -list)")
		os.Exit(2)
	case "all":
		todo = experiments.Ids()
	default:
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if _, err := experiments.Lookup(id); err != nil {
				fmt.Fprintf(os.Stderr, "numabench: %v\n", err)
				os.Exit(2)
			}
			todo = append(todo, id)
		}
		if len(todo) == 0 {
			fmt.Fprintln(os.Stderr, "numabench: -experiment required (or -list)")
			os.Exit(2)
		}
	}

	stopProfiles, err := shared.StartHostProfiles()
	if err != nil {
		fatal(err)
	}

	opts := experiments.Options{
		Trace:   shared.Trace != "",
		Profile: *breakdown || *foldedPath != "",
		Spans:   shared.Spans != "",
		Serve:   experiments.ServeOptions{Requests: *serveReqs, Util: *serveUtil},
		Adapt:   experiments.AdaptOptions{Period: *adaptPer, BudgetFrac: *adaptBud},
	}
	var traced []report.TraceProcess
	var folded []report.FoldedProfile

	for _, id := range todo {
		opts.Runner = core.Runner{Workers: *parallel}
		if *progress {
			opts.Runner.Progress = core.ProgressWriter(os.Stderr, id, 0)
		}
		d, err := experiments.Lookup(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "numabench: %v\n", err)
			os.Exit(2)
		}
		start := time.Now()
		res, err := d.Run(s, opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		tables := res.Tables
		if *breakdown {
			if cols := breakdownColumns(res); len(cols) > 0 {
				tables = append(tables, report.BreakdownTable(
					id+": cycle breakdown (% of attributed cycles)", cols...))
			}
		}
		for _, tab := range tables {
			if *csv {
				tab.RenderCSV(os.Stdout)
			} else {
				tab.Render(os.Stdout)
			}
			fmt.Println()
		}
		if shared.JSON != "" {
			if err := cli.AppendJSONL(shared.JSON, res.Records); err != nil {
				fatal(fmt.Errorf("%s: %w", shared.JSON, err))
			}
		}
		if shared.Trace != "" {
			traced = append(traced, cli.RecordTraces(res)...)
		}
		if shared.Spans != "" && len(res.Spans) > 0 {
			if err := cli.WriteSpans(shared.Spans, res.Spans); err != nil {
				fatal(fmt.Errorf("%s: %w", shared.Spans, err))
			}
		}
		if *foldedPath != "" {
			folded = append(folded, cli.RecordFolded(res)...)
		}
		if *showTime {
			fmt.Fprintf(os.Stderr, "[%s: %.1fs]\n", id, time.Since(start).Seconds())
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "[%s: %s]\n", id, cli.CacheSummary())
		}
	}

	if shared.Trace != "" {
		if err := cli.WriteChromeTrace(shared.Trace, traced); err != nil {
			fatal(fmt.Errorf("%s: %w", shared.Trace, err))
		}
	}
	if *foldedPath != "" {
		if err := cli.WriteFolded(*foldedPath, folded); err != nil {
			fatal(fmt.Errorf("%s: %w", *foldedPath, err))
		}
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
}

// breakdownColumns builds one breakdown column per profiled grid cell of
// an experiment result.
func breakdownColumns(res *experiments.Result) []report.BreakdownColumn {
	var cols []report.BreakdownColumn
	for i := range res.Records {
		rec := &res.Records[i]
		if rec.Profile == nil {
			continue
		}
		cols = append(cols, report.BreakdownColumn{Name: rec.Cell, Profile: rec.Profile})
	}
	return cols
}
