package experiments

import (
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/vmm"
)

// Fig7Result holds Figures 7a-7d: join time of the index nested-loop join
// (W4) for one index kind across allocators and placement policies on
// Machine A.
type Fig7Result struct {
	Kind       index.Kind
	Allocators []string
	Policies   []vmm.Policy
	JoinCycles [][]float64 // [allocator][policy]
	// BestBuild/BestJoin track the fastest configuration's phase split for
	// Figure 7e.
	BestBuild float64
	BestJoin  float64
	BestAlloc string
	Records   []Record
}

// Fig7 sweeps one index kind over allocators x policies (W4, Machine A).
func Fig7(s Scale, o Options, kind index.Kind) (Fig7Result, error) {
	out := Fig7Result{
		Kind:       kind,
		Allocators: alloc.WorkloadNames(),
		Policies:   fig6Policies,
	}
	tables := datagen.CachedJoin(s.JoinR, datagen.DefaultJoinRatio, 17)
	type cell struct {
		build, probe float64
		rec          Record
	}
	cells, err := core.Collect(o.Runner, len(out.Allocators)*len(out.Policies), func(i int) (cell, error) {
		start := startCell()
		m := o.machineFor("A")
		cfg := baseConfig(16)
		cfg.Allocator = out.Allocators[i/len(out.Policies)]
		cfg.Policy = out.Policies[i%len(out.Policies)]
		m.Configure(cfg)
		res := query.IndexJoin(m, kind, tables)
		rec := finishCell(start, string(kind)+"/"+cfg.Allocator+"/"+cfg.Policy.String(),
			map[string]string{
				"index":     string(kind),
				"allocator": cfg.Allocator,
				"policy":    cfg.Policy.String(),
			}, m, res.Result.WallCycles)
		rec.Extra = map[string]float64{
			"build_cycles": res.BuildCycles,
			"probe_cycles": res.ProbeCycles,
		}
		return cell{res.BuildCycles, res.ProbeCycles, rec}, nil
	})
	if err != nil {
		return Fig7Result{}, err
	}
	// Best-cell selection walks the cells in sweep order (first win on
	// ties), matching the serial implementation exactly.
	bestTotal := 0.0
	for i, c := range cells {
		if i%len(out.Policies) == 0 {
			out.JoinCycles = append(out.JoinCycles, nil)
		}
		row := len(out.JoinCycles) - 1
		out.JoinCycles[row] = append(out.JoinCycles[row], c.probe)
		out.Records = append(out.Records, c.rec)
		total := c.build + c.probe
		if bestTotal == 0 || total < bestTotal {
			bestTotal = total
			out.BestBuild = c.build
			out.BestJoin = c.probe
			out.BestAlloc = out.Allocators[i/len(out.Policies)]
		}
	}
	return out, nil
}

// Render renders one Figure 7 grid (join times).
func (r Fig7Result) Render() *report.Table {
	t := &report.Table{Title: "Fig 7: " + string(r.Kind) + " index, W4 join times, Machine A (billion cycles)"}
	t.Header = []string{"allocator"}
	for _, p := range r.Policies {
		t.Header = append(t.Header, p.String())
	}
	for i, name := range r.Allocators {
		cells := []any{name}
		for _, v := range r.JoinCycles[i] {
			cells = append(cells, report.Billions(v))
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig7eResult holds Figure 7e: each index's build and join time at its
// fastest configuration.
type Fig7eResult struct {
	Kinds []index.Kind
	Build []float64
	Join  []float64
	Alloc []string
}

// Fig7eFromGrids builds Figure 7e from the four Fig7 grids (one per
// index kind): each index's build and join time at its best configuration.
func Fig7eFromGrids(grids []Fig7Result) Fig7eResult {
	var out Fig7eResult
	for _, g := range grids {
		out.Kinds = append(out.Kinds, g.Kind)
		out.Build = append(out.Build, g.BestBuild)
		out.Join = append(out.Join, g.BestJoin)
		out.Alloc = append(out.Alloc, g.BestAlloc)
	}
	return out
}

// Render renders Figure 7e.
func (r Fig7eResult) Render() *report.Table {
	t := &report.Table{
		Title:  "Fig 7e: index build and join times at best configuration, Machine A (billion cycles)",
		Header: []string{"index", "build", "join", "best allocator"},
	}
	for i, k := range r.Kinds {
		t.AddRow(string(k), report.Billions(r.Build[i]), report.Billions(r.Join[i]), r.Alloc[i])
	}
	return t
}
