// Command numatune runs tuning campaigns over the NUMA knob space
// (thread placement x memory policy x allocator x AutoNUMA x THP) on the
// simulator. Three strategies are available: an exhaustive grid, greedy
// coordinate descent from the OS default, and successive halving, which
// races the whole space at a small dataset fraction and promotes
// survivors toward full size. Campaigns are budgeted in simulated cycles
// and parallelize with -parallel while every artifact stays
// byte-identical to a serial run.
//
// Usage:
//
//	numatune -strategy sha -workload W1 -machine A -scale cal
//	numatune -strategy grid -workload W3 -machine C -freeze thp=off -parallel 4
//	numatune -strategy sha -scale cal -budget 50 -json campaign.jsonl -progress
//	numatune -strategy sha -scale cal -json campaign.jsonl -resume
//	numatune -validate campaign.jsonl
//
// -json writes one repro/tune/v1 record per trial (see
// internal/tune.SchemaVersion), flushed after every scheduling wave so a
// killed campaign leaves a usable checkpoint. -resume loads that file,
// re-runs only the missing trials, and rewrites it — the resumed artifact
// is byte-identical to an uninterrupted run. Unlike repro/bench/v2 there
// is no host_ns field: every byte is deterministic for a fixed spec.
//
// -workload WS tunes the open-loop serving mix for p99 latency instead of
// wall cycles: records carry objective=p99_latency and wall_cycles holds
// the trial's p99 in cycles.
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
	"repro/internal/tune"
)

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "numatune: %v\n", err)
	os.Exit(1)
}

func usageErr(msg string) {
	fmt.Fprintf(os.Stderr, "numatune: %s\n", msg)
	os.Exit(2)
}

func main() {
	var (
		strategy = flag.String("strategy", "sha", "campaign strategy: grid, descent or sha")
		workload = flag.String("workload", "W1", "workload id: W1, W3, or WS (open-loop serving, minimizes p99 latency)")
		mc       = flag.String("machine", "A", "simulated machine: A-C (paper presets), D (8-node chiplet) or E (16-node mesh)")
		scale    = flag.String("scale", "cal", "dataset scale: tiny, small, cal or default")
		threads  = flag.Int("threads", 0, "worker threads per trial (0 = the machine's hardware threads)")
		seed     = flag.Uint64("seed", 1, "RNG seed for every trial")
		budget   = flag.Float64("budget", 0, "simulated-cycle budget in billions (0 = unbounded)")
		eta      = flag.Int("eta", 0, "successive-halving elimination factor (0 = default 4)")
		rungs    = flag.Int("rungs", 0, "successive-halving rung count (0 = default 3)")
		wave     = flag.Int("wave", 0, "trials per scheduling wave (0 = default 16)")
		freeze   = flag.String("freeze", "", "freeze axes to single values, e.g. placement=Sparse,thp=off")
		top      = flag.Int("top", 10, "configurations to print in the ranking")
		parallel = flag.Int("parallel", 1, "trial worker count (0 = GOMAXPROCS); output is identical to -parallel 1")
		progress = flag.Bool("progress", false, "report campaign progress and cache reuse on stderr after every wave")
		resume   = flag.Bool("resume", false, "resume from the -json checkpoint: re-run only missing trials, rewrite the file")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	var shared cli.Flags
	shared.RegisterNoTrace(flag.CommandLine)
	flag.Parse()

	if done, err := shared.HandleValidate(os.Stdout); done {
		if err != nil {
			fatal(err)
		}
		return
	}

	s, err := cli.ParseScale(*scale)
	if err != nil {
		usageErr(err.Error())
	}

	space := tune.DefaultSpace()
	if *freeze != "" {
		space, err = tune.ParseFreezes(space, *freeze)
		if err != nil {
			usageErr(err.Error())
		}
	}

	spec := tune.Spec{
		Strategy: strings.ToLower(*strategy),
		Space:    space,
		Workload: strings.ToUpper(*workload),
		Machine:  strings.ToUpper(*mc),
		Threads:  *threads,
		Seed:     *seed,
		Size:     experiments.TuneSize(s),
		Budget:   *budget * 1e9,
		Eta:      *eta,
		Rungs:    *rungs,
		Wave:     *wave,
	}

	stopProfiles, err := shared.StartHostProfiles()
	if err != nil {
		fatal(err)
	}

	// -resume loads the checkpoint before the sink truncates the file;
	// the campaign replays reused trials in schedule order, so the
	// rewritten artifact is byte-identical to an uninterrupted run.
	var prior []tune.Record
	if *resume {
		if shared.JSON == "" {
			usageErr("-resume requires -json (the checkpoint to resume from)")
		}
		prior, err = tune.LoadCheckpoint(shared.JSON)
		if err != nil {
			fatal(err)
		}
	}
	var sink tune.SinkFunc
	if shared.JSON != "" {
		f, err := os.OpenFile(shared.JSON, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = func(recs []tune.Record) error { return tune.WriteJSONL(f, recs) }
	}
	var prog tune.ProgressFunc
	if *progress {
		start := time.Now()
		prog = func(trials, reused int, spent float64) {
			fmt.Fprintf(os.Stderr, "[%s] trials=%d reused=%d spent=%.3fb cycles, %s (%.1fs)\n",
				spec.ID(), trials, reused, spent/1e9, cli.CacheSummary(), time.Since(start).Seconds())
		}
	}

	res, err := tune.Run(spec, core.Runner{Workers: *parallel}, prior, sink, prog)
	if err != nil {
		fatal(err)
	}

	render := func(t *report.Table) {
		if *csv {
			t.RenderCSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}
	render(report.TopConfigsTable(
		fmt.Sprintf("Top configurations, %s on Machine %s (%s)", res.Spec.Workload, res.Spec.Machine, res.Spec.Strategy),
		tune.TopConfigs(res.Records), *top, tune.DefaultCycles(res.Records)))
	if res.Spec.Strategy == tune.StrategyGrid {
		render(report.KnobMarginalsTable(
			fmt.Sprintf("Per-knob marginals, %s on Machine %s", res.Spec.Workload, res.Spec.Machine),
			tune.Marginals(res.Spec.Space, res.Records)))
	}

	fmt.Printf("campaign %s: %d trials (%d reused from checkpoint), spent %.3f billion simulated cycles\n",
		res.Spec.ID(), len(res.Records), res.Reused, res.CyclesSpent/1e9)
	if res.Exhausted {
		fmt.Println("budget exhausted before the schedule completed")
	}
	if res.Best != nil {
		fmt.Printf("best: %s  %.3fb cycles  LAR %.3f\n",
			res.Best.Key, res.Best.WallCycles/1e9, res.Best.LAR)
	}
	if row, err := tune.Regret(res); err == nil {
		fmt.Printf("flowchart advice: %s  %.3fb cycles  regret %+.1f%% vs campaign optimum\n",
			row.AdvisedKey, row.AdvisedCycles/1e9, row.Regret()*100)
	} else if res.Best != nil {
		fmt.Printf("flowchart advice not measured by this campaign's schedule (%v)\n", err)
	}

	if err := stopProfiles(); err != nil {
		fatal(err)
	}
}
