// Package experiments contains one driver per table and figure of the
// paper's evaluation section. Each driver builds the machines, datasets
// and configurations the paper used, runs the workload grid on the
// simulator, and returns a typed result that renders as the same rows or
// series the paper reports. See DESIGN.md section 5 for the experiment
// index and EXPERIMENTS.md for paper-vs-measured shapes.
package experiments

import (
	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/query"
	"repro/internal/tune"
	"repro/internal/vmm"
)

// Scale sizes every experiment. Tests use Tiny; the benchmark harness uses
// Default, which is about 1/50 of the paper's datasets (cache ratios are
// preserved; see DESIGN.md).
type Scale struct {
	AggRecords     int     // W1/W2 dataset rows (paper: 100M)
	AggCardinality int     // group-by cardinality (paper: 1M)
	JoinR          int     // W3/W4 build rows (paper: 16M; S is 16x)
	MicrobenchOps  int     // allocator microbenchmark ops per thread (paper: 100M)
	TPCHSF         float64 // TPC-H scale factor (paper: 20)
	WarmRuns       int     // W5 warm runs per query (paper: 5)
	Fig3Runs       int     // consecutive runs in Figure 3 (paper: 10)
	ServeRequests  int     // open-loop serving stream length (extension)
	AdaptPartKB    int     // adapt experiment per-worker partition KiB (extension)
}

// Tiny is for unit tests: everything finishes in milliseconds.
var Tiny = Scale{
	AggRecords:     8_000,
	AggCardinality: 400,
	JoinR:          1_500,
	MicrobenchOps:  2_000,
	TPCHSF:         0.001,
	WarmRuns:       1,
	Fig3Runs:       4,
	ServeRequests:  240,
	AdaptPartKB:    64,
}

// Small runs each driver in a few seconds; used by quick benchmarks.
var Small = Scale{
	AggRecords:     120_000,
	AggCardinality: 8_000,
	JoinR:          20_000,
	MicrobenchOps:  20_000,
	TPCHSF:         0.004,
	WarmRuns:       2,
	Fig3Runs:       10,
	ServeRequests:  1_200,
	AdaptPartKB:    512,
}

// Cal is the reproduction scale used for EXPERIMENTS.md: large enough
// that working sets exceed Machine A's per-node LLC (so every NUMA effect
// is visible) while a full `numabench -experiment all` run stays in
// minutes. The shape tests in experiments_test.go validate the paper's
// claims at this scale.
var Cal = Scale{
	AggRecords:     300_000,
	AggCardinality: 40_000,
	JoinR:          40_000,
	MicrobenchOps:  8_000,
	TPCHSF:         0.005,
	WarmRuns:       2,
	Fig3Runs:       10,
	ServeRequests:  4_000,
	AdaptPartKB:    4_096,
}

// Default is the full simulator scale used for EXPERIMENTS.md.
var Default = Scale{
	AggRecords:     1_200_000,
	AggCardinality: 150_000,
	JoinR:          120_000,
	MicrobenchOps:  60_000,
	TPCHSF:         0.01,
	WarmRuns:       2,
	Fig3Runs:       10,
	ServeRequests:  8_000,
	AdaptPartKB:    8_192,
}

// machineFor builds a fresh machine by letter (A-E), observed as o asks:
// under Trace an event recorder and periodic counter snapshots, so the
// cell's record carries its event stream, and under Profile the cycle
// profiler.
func (o Options) machineFor(letter string) *machine.Machine {
	m, err := tune.MachineFor(letter)
	if err != nil {
		panic(err)
	}
	obs := machine.ObserveOptions{Profile: o.Profile}
	if o.Trace {
		obs.Trace, obs.SnapEvery = true, SnapEvery
	}
	m.Observe(obs)
	return m
}

// baseConfig is the paper's measurement baseline for W1-W4 once placement
// is under test: Sparse affinity, kernel daemons off unless an experiment
// turns them on.
func baseConfig(threads int) machine.RunConfig {
	return machine.RunConfig{
		Threads:   threads,
		Placement: machine.PlaceSparse,
		Policy:    vmm.FirstTouch,
		Allocator: "ptmalloc",
		AutoNUMA:  false,
		THP:       false,
		Seed:      1,
	}
}

// runW1 executes the holistic aggregation workload on a fresh machine.
// The dataset is memoized: identical (dist, size, seed) requests across
// grid cells share one read-only build.
func runW1(m *machine.Machine, s Scale, dist datagen.Distribution) query.Outcome {
	recs := datagen.CachedGenerate(dist, s.AggRecords, s.AggCardinality, 11)
	return query.Aggregate(m, query.AggregationSpec{
		Records:     recs,
		Cardinality: s.AggCardinality,
		Holistic:    true,
	})
}

// runW2 executes the distributive aggregation workload (Zipf e=0.5, as
// Generate builds for ZipfDist).
func runW2(m *machine.Machine, s Scale) query.Outcome {
	recs := datagen.CachedGenerate(datagen.ZipfDist, s.AggRecords, s.AggCardinality, 13)
	return query.Aggregate(m, query.AggregationSpec{
		Records:     recs,
		Cardinality: s.AggCardinality,
		Holistic:    false,
	})
}

// runW3 executes the hash join workload.
func runW3(m *machine.Machine, s Scale) query.JoinOutcome {
	return query.HashJoin(m, query.JoinSpec{Tables: datagen.CachedJoin(s.JoinR, datagen.DefaultJoinRatio, 17)})
}
