package experiments

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/vmm"
)

// Fig5bSeriesResult holds the Figure 5b time series: periodic counter
// snapshots of W1 under each placement policy with AutoNUMA on, showing
// the local access ratio converging as the balancer migrates pages.
type Fig5bSeriesResult struct {
	Policies []vmm.Policy
	// Series[i] is the snapshot sequence for Policies[i].
	Series  [][]machine.Snapshot
	Records []Record
}

// Fig5bSeries runs W1 on Machine A once per placement policy with
// AutoNUMA on, sampling the counter state every SnapEvery simulated
// cycles. Where Fig5a reports the end-of-run local access ratio, this
// driver exposes its trajectory — the paper's Figure 5b story that
// AutoNUMA recovers locality over time for policies that start remote.
func Fig5bSeries(s Scale, o Options) (Fig5bSeriesResult, error) {
	out := Fig5bSeriesResult{Policies: fig5Policies}
	type cell struct {
		snaps []machine.Snapshot
		rec   Record
	}
	cells, err := core.Collect(o.Runner, len(fig5Policies), func(i int) (cell, error) {
		start := startCell()
		m := o.machineFor("A")
		cfg := baseConfig(16)
		cfg.Policy = fig5Policies[i]
		cfg.AutoNUMA = true
		m.Configure(cfg)
		// Snapshots drive this figure, so sample regardless of -trace.
		m.Observe(machine.ObserveOptions{SnapEvery: SnapEvery})
		res := runW1(m, s, datagen.MovingClusterDist)
		rec := finishCell(start, cfg.Policy.String(),
			map[string]string{"policy": cfg.Policy.String()},
			m, res.Result.WallCycles)
		rec.Extra = map[string]float64{"lar": res.Result.Counters.LAR()}
		return cell{rec.Snapshots, rec}, nil
	})
	if err != nil {
		return Fig5bSeriesResult{}, err
	}
	for _, c := range cells {
		out.Series = append(out.Series, c.snaps)
		out.Records = append(out.Records, c.rec)
	}
	return out, nil
}

// Render renders the time series in long format: one row per sample.
func (r Fig5bSeriesResult) Render() *report.Table {
	t := &report.Table{
		Title:  "Fig 5b (time series): local access ratio over time, W1, Machine A, AutoNUMA on",
		Header: []string{"policy", "cycle (B)", "LAR"},
	}
	for i, p := range r.Policies {
		for _, snap := range r.Series[i] {
			t.AddRow(p.String(), report.Billions(snap.Cycle), snap.Counters.LAR())
		}
	}
	return t
}
