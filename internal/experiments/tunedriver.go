package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/report"
	"repro/internal/tune"
)

// TuneSize maps a Scale onto the tuning subsystem's workload sizing, so
// numatune and the registry driver agree with the figure drivers on
// dataset dimensions (and share their memoized builds).
func TuneSize(s Scale) tune.Size {
	return tune.Size{
		AggRecords:     s.AggRecords,
		AggCardinality: s.AggCardinality,
		JoinR:          s.JoinR,
	}
}

// tuneRegretCells are the machine x workload cells of the flowchart-regret
// table beyond W1/A (which the exhaustive grid campaign covers).
var tuneRegretCells = [][2]string{
	{"A", "W3"}, {"B", "W1"}, {"B", "W3"}, {"C", "W1"}, {"C", "W3"},
}

// TuneResult is the tuning-campaign experiment: the three strategies
// raced on W1/Machine A (the exhaustive grid doubles as ground truth),
// plus successive-halving campaigns on the remaining machine x workload
// cells for the flowchart-regret validation.
type TuneResult struct {
	Grid    *tune.Result // exhaustive grid, W1/A — the true optimum
	Descent *tune.Result // greedy coordinate descent, W1/A
	SHA     *tune.Result // successive halving, W1/A

	RegretRows []report.RegretRow // A/B/C x W1/W3, machine-major order
	Records    []Record
}

// Tune runs the tuning-campaign experiment at a scale. Every campaign
// dispatches its trials through the shared runner, so the cells
// parallelize like any other driver while artifacts stay byte-identical.
func Tune(s Scale, o Options) (TuneResult, error) {
	size := TuneSize(s)
	var out TuneResult
	run := func(strategy, wl, mc string) (*tune.Result, error) {
		res, err := tune.Run(tune.Spec{
			Strategy: strategy, Space: tune.DefaultSpace(),
			Workload: wl, Machine: mc, Size: size,
		}, o.Runner, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		recs, err := tuneRecords(res)
		if err != nil {
			return nil, err
		}
		out.Records = append(out.Records, recs...)
		return res, nil
	}

	var err error
	if out.Grid, err = run(tune.StrategyGrid, "W1", "A"); err != nil {
		return out, err
	}
	if out.Descent, err = run(tune.StrategyDescent, "W1", "A"); err != nil {
		return out, err
	}
	if out.SHA, err = run(tune.StrategySHA, "W1", "A"); err != nil {
		return out, err
	}

	// W1/A's regret comes from the grid, whose schedule always measures
	// the advised configuration at full size.
	row, err := tune.Regret(out.Grid)
	if err != nil {
		return out, err
	}
	out.RegretRows = append(out.RegretRows, row)
	// The other cells use successive halving, which may eliminate the
	// advised point before the full-size rung — the fallback measures it
	// through the identical trial path, outside the campaign's budget.
	for _, cell := range tuneRegretCells {
		res, err := run(tune.StrategySHA, cell[1], cell[0])
		if err != nil {
			return out, err
		}
		row, err := tune.RegretWithFallback(res)
		if err != nil {
			return out, err
		}
		out.RegretRows = append(out.RegretRows, row)
	}
	return out, nil
}

// RenderStrategies compares the three strategies on W1/A: what each found
// and what it spent, relative to the exhaustive grid's ground truth.
func (r TuneResult) RenderStrategies() *report.Table {
	t := &report.Table{
		Title: "Tuning strategies on W1, Machine A (grid = ground truth)",
		Header: []string{"strategy", "trials", "cycles spent", "% of grid spend",
			"best configuration", "best cycles", "vs grid optimum"},
	}
	gridBest := r.Grid.Best.WallCycles
	gridSpend := r.Grid.CyclesSpent
	for _, res := range []*tune.Result{r.Grid, r.Descent, r.SHA} {
		t.AddRow(res.Spec.Strategy, len(res.Records), report.Billions(res.CyclesSpent),
			report.Pct(res.CyclesSpent/gridSpend), res.Best.Key,
			report.Billions(res.Best.WallCycles),
			report.Pct((res.Best.WallCycles-gridBest)/gridBest))
	}
	return t
}

// RenderTop ranks the grid campaign's best configurations against the OS
// default.
func (r TuneResult) RenderTop() *report.Table {
	return report.TopConfigsTable("Top configurations, W1 on Machine A (exhaustive grid)",
		tune.TopConfigs(r.Grid.Records), 10, tune.DefaultCycles(r.Grid.Records))
}

// RenderMarginals aggregates the grid per knob value: each knob's marginal
// gain is the spread of its mean-vs-axis-best column.
func (r TuneResult) RenderMarginals() *report.Table {
	return report.KnobMarginalsTable("Per-knob marginals, W1 on Machine A (exhaustive grid)",
		tune.Marginals(r.Grid.Spec.Space, r.Grid.Records))
}

// RenderRegret is the flowchart-regret validation across machines and
// workloads.
func (r TuneResult) RenderRegret() *report.Table {
	return report.FlowchartRegretTable("Flowchart regret: core.Advise vs campaign optimum", r.RegretRows)
}

// tuneRecords converts a campaign's trials into the bench JSONL schema so
// numabench's sink, validator and summary tooling handle the tune
// experiment like any other. Campaign artifacts written by numatune use
// the richer repro/tune/v1 schema instead.
func tuneRecords(res *tune.Result) ([]Record, error) {
	m, err := tune.MachineFor(res.Spec.Machine)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, 0, len(res.Records))
	for i := range res.Records {
		tr := res.Records[i]
		labels := map[string]string{
			"strategy": tr.Strategy,
			"workload": tr.Workload,
			"machine":  tr.Machine,
			"key":      tr.Key,
			"rung":     strconv.Itoa(tr.Rung),
			"frac":     strconv.FormatFloat(tr.Frac, 'g', -1, 64),
		}
		if tr.Objective != "" {
			labels["objective"] = tr.Objective
		}
		recs = append(recs, Record{
			Schema:  SchemaVersion,
			Cell:    fmt.Sprintf("%s#%03d", tr.Campaign, tr.Trial),
			Labels:  labels,
			Machine: m.Spec.Name,
			Config: CellConfig{
				Threads:   tr.Threads,
				Placement: tr.Point.Placement,
				Policy:    tr.Point.Policy,
				Allocator: tr.Point.Allocator,
				AutoNUMA:  tr.Point.AutoNUMA == "on",
				THP:       tr.Point.THP == "on",
				Seed:      tr.Seed,
			},
			Seed:       tr.Seed,
			WallCycles: tr.WallCycles,
			FreqGHz:    m.Spec.FreqGHz,
			Counters:   tr.Counters,
			Extra:      map[string]float64{"lar": tr.LAR, "frac": tr.Frac, "rung": float64(tr.Rung)},
			Breakdown:  tr.Breakdown,
		})
	}
	return recs, nil
}
