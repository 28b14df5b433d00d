package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/report"
)

// ProfileCell is one configuration of the profile experiment with its full
// cycle attribution.
type ProfileCell struct {
	Name       string
	WallCycles float64
	Counters   machine.Counters
	Profile    *machine.Profile
}

// ProfileResult holds the profile experiment: W1 on Machine A under the OS
// default, under pinning alone (Table III's "modified" config), and under
// the paper's full tuned configuration — each with complete cycle
// attribution, so the Table III deltas come with the component breakdown
// that explains them.
type ProfileResult struct {
	Cells   []ProfileCell
	Records []Record
}

// profileSeed matches Table3's representative noisy draw, so the default
// cell exhibits the migration-heavy behaviour the paper profiles.
const profileSeed = 104

// Profile runs the three configurations with the cycle-attribution
// profiler attached (always on in this driver — attribution is its
// output). The pinned cell isolates what Sparse affinity alone buys
// (Table III); the tuned cell adds Interleave, tbbmalloc and daemons off
// (Figure 10), whose interleaving trades LAR for bandwidth.
func Profile(s Scale, o Options) (ProfileResult, error) {
	type spec struct {
		name string
		cfg  machine.RunConfig
	}
	base := baseConfig(16)
	defCfg := base
	defCfg.Placement = machine.PlaceNone
	defCfg.AutoNUMA = true // OS default keeps balancing on
	pinCfg := base
	pinCfg.Placement = machine.PlaceSparse
	tunedCfg := machine.TunedConfig(16)
	specs := []spec{
		{"default", defCfg},
		{"pinned", pinCfg},
		{"tuned", tunedCfg},
	}
	for i := range specs {
		specs[i].cfg.Seed = profileSeed
	}
	type cell struct {
		pc  ProfileCell
		rec Record
	}
	cells, err := core.Collect(o.Runner, len(specs), func(i int) (cell, error) {
		start := startCell()
		m := o.machineFor("A")
		m.Configure(specs[i].cfg)
		m.Observe(machine.ObserveOptions{Profile: true})
		res := runW1(m, s, datagen.MovingClusterDist).Result
		rec := finishCell(start, specs[i].name,
			map[string]string{
				"placement": specs[i].cfg.Placement.String(),
				"policy":    specs[i].cfg.Policy.String(),
				"allocator": specs[i].cfg.Allocator,
			}, m, res.WallCycles)
		return cell{ProfileCell{
			Name:       specs[i].name,
			WallCycles: res.WallCycles,
			Counters:   res.Counters,
			Profile:    m.Profile(),
		}, rec}, nil
	})
	if err != nil {
		return ProfileResult{}, err
	}
	out := ProfileResult{}
	for _, c := range cells {
		out.Cells = append(out.Cells, c.pc)
		out.Records = append(out.Records, c.rec)
	}
	return out, nil
}

// RenderTable3Extended renders Table III extended: the paper's perf-counter
// rows plus per-component attributed cycles, with percent changes of the
// pinned and tuned cells against the default.
func (r ProfileResult) RenderTable3Extended() *report.Table {
	t := &report.Table{
		Title: "Table III extended: counters and attributed cycles, W1 Machine A",
		Header: []string{"metric", "default", "pinned", "tuned",
			"pinned vs default", "tuned vs default"},
	}
	def, pin, tun := r.Cells[0], r.Cells[1], r.Cells[2]
	pct := func(a, b float64) string {
		if a == 0 {
			return "n/a"
		}
		return report.Pct((b - a) / a)
	}
	crow := func(name string, f func(machine.Counters) uint64) {
		a, b, c := f(def.Counters), f(pin.Counters), f(tun.Counters)
		t.AddRow(name, a, b, c, pct(float64(a), float64(b)), pct(float64(a), float64(c)))
	}
	crow("thread migrations", func(c machine.Counters) uint64 { return c.ThreadMigrations })
	crow("cache misses", func(c machine.Counters) uint64 { return c.CacheMisses })
	crow("tlb misses", func(c machine.Counters) uint64 { return c.TLBMisses })
	crow("local memory accesses", func(c machine.Counters) uint64 { return c.LocalAccesses })
	crow("remote memory accesses", func(c machine.Counters) uint64 { return c.RemoteAccesses })
	crow("minor faults", func(c machine.Counters) uint64 { return c.MinorFaults })
	crow("page migrations", func(c machine.Counters) uint64 { return c.PageMigrations })
	t.AddRow("local access ratio",
		fmt.Sprintf("%.3f", def.Counters.LAR()),
		fmt.Sprintf("%.3f", pin.Counters.LAR()),
		fmt.Sprintf("%.3f", tun.Counters.LAR()),
		pct(def.Counters.LAR(), pin.Counters.LAR()),
		pct(def.Counters.LAR(), tun.Counters.LAR()))
	t.AddRow("wall cycles (G)",
		report.Billions(def.WallCycles), report.Billions(pin.WallCycles),
		report.Billions(tun.WallCycles),
		pct(def.WallCycles, pin.WallCycles), pct(def.WallCycles, tun.WallCycles))
	// The attribution rows: the component cycles behind the counter deltas.
	dTot, pTot, uTot := def.Profile.Totals(), pin.Profile.Totals(), tun.Profile.Totals()
	for _, b := range machine.Buckets() {
		if dTot[b] == 0 && pTot[b] == 0 && uTot[b] == 0 {
			continue
		}
		t.AddRow(b.String()+" (Gcycles)",
			report.Billions(dTot[b]), report.Billions(pTot[b]), report.Billions(uTot[b]),
			pct(dTot[b], pTot[b]), pct(dTot[b], uTot[b]))
	}
	return t
}

// RenderBreakdown renders the percentage-stacked component breakdown of
// the three configurations.
func (r ProfileResult) RenderBreakdown() *report.Table {
	cols := make([]report.BreakdownColumn, len(r.Cells))
	for i, c := range r.Cells {
		cols[i] = report.BreakdownColumn{Name: c.Name, Profile: c.Profile}
	}
	return report.BreakdownTable("Cycle breakdown (% of attributed cycles)", cols...)
}

// RenderMatrices renders each cell's node access matrix, numastat-style.
func (r ProfileResult) RenderMatrices() []*report.Table {
	out := make([]*report.Table, len(r.Cells))
	for i, c := range r.Cells {
		out[i] = report.NodeMatrixTable("Node access matrix: "+c.Name, c.Profile)
	}
	return out
}
