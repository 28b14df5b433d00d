package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/tpch"
	"repro/internal/vmm"
)

// w5TunedConfig is the configuration the paper used to speed up W5: First
// Touch placement, AutoNUMA and THP disabled, Sparse affinity, tbbmalloc.
func w5TunedConfig(threads int, keepTHP bool) machine.RunConfig {
	return machine.RunConfig{
		Threads:   threads,
		Placement: machine.PlaceSparse,
		Policy:    vmm.FirstTouch,
		Allocator: "tbbmalloc",
		AutoNUMA:  false,
		THP:       keepTHP, // the paper left THP on for DBMSx only
		Seed:      1,
	}
}

// Fig8Result holds Figure 8: per-query latency reduction of the tuned
// configuration over the OS default, for each database system.
type Fig8Result struct {
	Systems []string
	// Reduction[system][q-1] = (default - tuned) / default.
	Reduction map[string][]float64
	// DefaultWall and TunedWall keep the raw means for EXPERIMENTS.md.
	DefaultWall map[string][]float64
	TunedWall   map[string][]float64
	Records     []Record
}

// Fig8 runs all 22 TPC-H queries on the five engine profiles under the OS
// default and the tuned configuration, on Machine A. Cells are whole
// harness runs (one engine under one configuration measuring all queries
// in order): engine state persists across a harness's queries, so the
// harness is the smallest boundary that keeps results identical to a
// serial sweep. The database itself is built once and shared read-only.
func Fig8(s Scale, o Options) (Fig8Result, error) {
	db := tpch.GenerateCached(s.TPCHSF, 41)
	profiles := tpch.Profiles()
	type cell struct {
		walls []float64
		res   []tpch.QueryResult
		rec   Record
	}
	configs := 2 // 0 = OS default, 1 = tuned
	cells, err := core.Collect(o.Runner, len(profiles)*configs, func(i int) (cell, error) {
		start := startCell()
		prof := profiles[i/configs]
		spec := machine.SpecA()
		var cfg machine.RunConfig
		which := "tuned"
		if i%configs == 0 {
			cfg = machine.DefaultConfig(spec.HardwareThreads())
			cfg.Seed = 9
			which = "default"
		} else {
			cfg = w5TunedConfig(spec.HardwareThreads(), prof.Name == "DBMSx")
		}
		h := tpch.NewHarness(spec, prof, cfg, db, s.WarmRuns)
		walls, res := h.MeasureAll()
		// The harness owns its machine (not built via machineFor), so W5
		// cells carry counters and config but no event trace.
		wall := 0.0
		for _, w := range walls {
			wall += w
		}
		rec := finishCell(start, prof.Name+"/"+which,
			map[string]string{"engine": prof.Name, "config": which},
			h.Engine.M, wall)
		rec.Extra = map[string]float64{}
		for q, w := range walls {
			rec.Extra["q"+strconv.Itoa(q+1)] = w
		}
		return cell{walls, res, rec}, nil
	})
	if err != nil {
		return Fig8Result{}, err
	}
	out := Fig8Result{
		Reduction:   map[string][]float64{},
		DefaultWall: map[string][]float64{},
		TunedWall:   map[string][]float64{},
	}
	for _, c := range cells {
		out.Records = append(out.Records, c.rec)
	}
	for p, prof := range profiles {
		out.Systems = append(out.Systems, prof.Name)
		def, tuned := cells[p*configs], cells[p*configs+1]
		for q := 0; q < tpch.NumQueries; q++ {
			if def.res[q].Check != tuned.res[q].Check {
				return Fig8Result{}, fmt.Errorf("experiments: %s Q%d answers diverged between configs", prof.Name, q+1)
			}
			out.Reduction[prof.Name] = append(out.Reduction[prof.Name],
				(def.walls[q]-tuned.walls[q])/def.walls[q])
		}
		out.DefaultWall[prof.Name] = def.walls
		out.TunedWall[prof.Name] = tuned.walls
	}
	return out, nil
}

// Render renders Figure 8.
func (r Fig8Result) Render() *report.Table {
	t := &report.Table{Title: "Fig 8: TPC-H query latency reduction, tuned vs default OS configuration, Machine A"}
	t.Header = []string{"query"}
	t.Header = append(t.Header, r.Systems...)
	for q := 0; q < tpch.NumQueries; q++ {
		cells := []any{"Q" + strconv.Itoa(q+1)}
		for _, sys := range r.Systems {
			cells = append(cells, report.Pct(r.Reduction[sys][q]))
		}
		t.AddRow(cells...)
	}
	avg := []any{"mean"}
	for _, sys := range r.Systems {
		avg = append(avg, report.Pct(r.Mean(sys)))
	}
	t.AddRow(avg...)
	return t
}

// Mean returns a system's average latency reduction across queries.
func (r Fig8Result) Mean(system string) float64 {
	var sum float64
	for _, v := range r.Reduction[system] {
		sum += v
	}
	return sum / float64(len(r.Reduction[system]))
}

// Max returns a system's best per-query latency reduction.
func (r Fig8Result) Max(system string) float64 {
	best := r.Reduction[system][0]
	for _, v := range r.Reduction[system] {
		if v > best {
			best = v
		}
	}
	return best
}

// Fig9Result holds Figure 9: MonetDB's Q5 and Q18 latency under each
// allocator (tuned OS configuration otherwise).
type Fig9Result struct {
	Allocators []string
	Q5         []float64
	Q18        []float64
	Records    []Record
}

// Fig9 varies the overriding allocator for MonetDB on queries 5 and 18.
// One cell per allocator: each builds its own harness and measures both
// queries in order on it.
func Fig9(s Scale, o Options) (Fig9Result, error) {
	db := tpch.GenerateCached(s.TPCHSF, 41)
	out := Fig9Result{Allocators: alloc.WorkloadNames()}
	prof := tpch.ProfileByName("MonetDB")
	type cell struct {
		q5, q18 float64
		rec     Record
	}
	cells, err := core.Collect(o.Runner, len(out.Allocators), func(i int) (cell, error) {
		start := startCell()
		spec := machine.SpecA()
		cfg := w5TunedConfig(spec.HardwareThreads(), false)
		cfg.Allocator = out.Allocators[i]
		h := tpch.NewHarness(spec, prof, cfg, db, s.WarmRuns)
		q5, _ := h.Measure(5)
		q18, _ := h.Measure(18)
		rec := finishCell(start, cfg.Allocator,
			map[string]string{"engine": prof.Name, "allocator": cfg.Allocator},
			h.Engine.M, q5+q18)
		rec.Extra = map[string]float64{"q5": q5, "q18": q18}
		return cell{q5, q18, rec}, nil
	})
	if err != nil {
		return Fig9Result{}, err
	}
	for _, c := range cells {
		out.Q5 = append(out.Q5, c.q5)
		out.Q18 = append(out.Q18, c.q18)
		out.Records = append(out.Records, c.rec)
	}
	return out, nil
}

// Render renders Figure 9 (millions of cycles: simulator-scale TPC-H
// queries are far below the billion-cycle range of W1-W4).
func (r Fig9Result) Render() *report.Table {
	t := &report.Table{
		Title:  "Fig 9: TPC-H Q5/Q18 latency by allocator, MonetDB, Machine A (million cycles)",
		Header: []string{"allocator", "Q5", "Q18"},
	}
	for i, a := range r.Allocators {
		t.AddRow(a, r.Q5[i]/1e6, r.Q18[i]/1e6)
	}
	return t
}
