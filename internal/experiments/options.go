package experiments

import (
	"repro/internal/core"
	"repro/internal/orchestrator"
)

// Options carries everything a driver reads besides its Scale, so a
// driver's result depends only on its arguments. The zero value means
// "all defaults": GOMAXPROCS workers and no instruments. Drivers that
// read per-experiment knobs declare them in Descriptor.Options (numabench
// -list prints them).
type Options struct {
	// Runner executes the driver's grid cells. Each cell builds a fresh,
	// fully isolated machine and derives its RNG streams from its own
	// seed, so results are byte-identical at any worker count (assembly
	// is always by cell index).
	Runner core.Runner
	// Trace attaches an event recorder and periodic counter snapshots to
	// every cell's machine (the numabench -trace flag).
	Trace bool
	// Profile attaches the cycle-attribution profiler to every cell's
	// machine, filling each record's breakdown and profile (the numabench
	// -breakdown and -folded flags).
	Profile bool
	// Spans collects the serve experiment's request spans into
	// Result.Spans (the numabench -spans flag). Span assembly is
	// observation-only: every simulated output is bit-identical on or off.
	Spans bool
	// Serve configures the open-loop serving experiment.
	Serve ServeOptions
	// Adapt configures the adaptive placement experiment.
	Adapt AdaptOptions
}

// AdaptOptions are the adapt experiment's overrides; zero values defer to
// the orchestrator's defaults.
type AdaptOptions struct {
	// Period overrides the orchestrator tick cadence in simulated cycles.
	Period float64
	// BudgetFrac overrides the migration-cost budget fraction.
	BudgetFrac float64
}

// config is the orchestrator configuration the overrides select.
func (a AdaptOptions) config() orchestrator.Config {
	oc := orchestrator.DefaultConfig()
	if a.Period > 0 {
		oc.Period = a.Period
	}
	if a.BudgetFrac > 0 {
		oc.BudgetFrac = a.BudgetFrac
	}
	return oc
}
