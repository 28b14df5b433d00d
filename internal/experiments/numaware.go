package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/numaop"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/tpch"
)

// The numaware experiment stress-tests the paper's central thesis — that
// application-AGNOSTIC knobs (placement, policy, allocator, AutoNUMA,
// THP) capture most of the NUMA win — against application-AWARE
// operators from internal/numaop. Three join variants per machine:
//
//	agnostic-tuned — the flowchart's advice applied to the agnostic
//	                 operator: HashJoin under TunedConfig (Sparse +
//	                 Interleave + tbbmalloc, daemons off).
//	aware-untuned  — the NUMA-aware operator with every knob at the OS
//	                 default: MPSM under DefaultConfig (no pinning,
//	                 first touch, ptmalloc, AutoNUMA + THP on). The
//	                 operator's placement assumptions must survive
//	                 migrating threads.
//	aware-tuned    — MPSM with the knobs set to SUPPORT it: Sparse
//	                 pinning + FIRST TOUCH + tbbmalloc, daemons off.
//	                 Deliberately not the flowchart's Interleave: the
//	                 flowchart's advice is derived for operators that
//	                 don't manage placement, and Interleave would scatter
//	                 the chunks MPSM deliberately localizes — the exact
//	                 point where agnostic advice stops being enough.
//
// A storage sweep rides along: the TPC-H Q1 lineitem scan (Quickstep
// profile) under identical knobs with single-region vs per-node chunked
// storage, gating on the dram_remote_* share of the scan's cycles.

// numawareVariants are the join cell variants, in report order.
var numawareVariants = []string{"agnostic-tuned", "aware-untuned", "aware-tuned"}

// numawareMachines are the machine letters, in report order.
var numawareMachines = []string{"A", "B", "C"}

// NumawareJoinCell is one machine x variant join measurement.
type NumawareJoinCell struct {
	Machine  string
	Variant  string
	Wall     float64
	Build    float64
	Probe    float64
	LAR      float64
	RemoteSh float64 // dram_remote_* share of attributed cycles
	Matches  uint64
	Checksum uint64
	STuples  int
}

// NumawareStorageCell is one machine x storage-mode scan measurement.
type NumawareStorageCell struct {
	Machine  string
	Mode     string // "single" or "chunked"
	Wall     float64
	LAR      float64
	RemoteSh float64
	Rows     int
}

// NumawareResult holds the full experiment.
type NumawareResult struct {
	// Join[machine letter][variant name].
	Join map[string]map[string]NumawareJoinCell
	// Storage[machine letter][mode].
	Storage map[string]map[string]NumawareStorageCell
	Records []Record
}

// numawareJoinConfig returns the RunConfig for a join variant.
func numawareJoinConfig(variant string, threads int) machine.RunConfig {
	switch variant {
	case "agnostic-tuned":
		return machine.TunedConfig(threads)
	case "aware-untuned":
		cfg := machine.DefaultConfig(threads)
		cfg.Seed = 9 // same default-config seed Figure 8 uses
		return cfg
	case "aware-tuned":
		return w5TunedConfig(threads, false)
	}
	panic("experiments: unknown numaware variant " + variant)
}

// Numaware runs the aware-vs-agnostic sweep: 9 join cells (3 machines x
// 3 variants) plus 6 storage cells (3 machines x {single, chunked}).
// Profiling is attached to every cell regardless of the -profile flag —
// the verdict needs the dram_remote_* breakdown. Both join operators
// reset counters (and with them the profile) after their untimed setup,
// and RunQuery does the same, so every cell's profile covers exactly its
// measured phase.
func Numaware(s Scale, o Options) (NumawareResult, error) {
	tables := datagen.CachedJoin(s.JoinR, datagen.DefaultJoinRatio, 17)
	db := tpch.GenerateCached(s.TPCHSF, 41)

	const modes = 2 // storage: 0 = single, 1 = chunked
	joinCells := len(numawareMachines) * len(numawareVariants)
	total := joinCells + len(numawareMachines)*modes

	type cell struct {
		join    *NumawareJoinCell
		storage *NumawareStorageCell
		rec     Record
	}
	cells, err := core.Collect(o.Runner, total, func(i int) (cell, error) {
		start := startCell()
		if i < joinCells {
			mc := numawareMachines[i/len(numawareVariants)]
			variant := numawareVariants[i%len(numawareVariants)]
			m := o.machineFor(mc)
			m.Observe(machine.ObserveOptions{Profile: true})
			m.Configure(numawareJoinConfig(variant, m.Spec.HardwareThreads()))
			var out query.JoinOutcome
			if variant == "agnostic-tuned" {
				out = query.HashJoin(m, query.JoinSpec{Tables: tables})
			} else {
				out = numaop.MPSMJoin(m, query.JoinSpec{Tables: tables})
			}
			jc := NumawareJoinCell{
				Machine:  mc,
				Variant:  variant,
				Wall:     out.Result.WallCycles,
				Build:    out.BuildCycles,
				Probe:    out.ProbeCycles,
				LAR:      out.Result.Counters.LAR(),
				RemoteSh: report.RemoteDRAMShare(m.Profile()),
				Matches:  out.Matches,
				Checksum: out.Checksum,
				STuples:  len(tables.S),
			}
			rec := finishCell(start, "join/"+mc+"/"+variant, map[string]string{
				"machine": mc, "variant": variant, "operator": operatorOf(variant),
			}, m, jc.Wall)
			rec.Extra = map[string]float64{
				"build_cycles":       jc.Build,
				"probe_cycles":       jc.Probe,
				"lar":                jc.LAR,
				"remote_cycle_share": jc.RemoteSh,
				"matches":            float64(jc.Matches),
				"tuples_per_kcycle":  float64(jc.STuples) / jc.Wall * 1e3,
			}
			return cell{join: &jc, rec: rec}, nil
		}

		si := i - joinCells
		mc := numawareMachines[si/modes]
		mode := "single"
		opts := tpch.StorageOptions{}
		if si%modes == 1 {
			mode = "chunked"
			opts.Chunked = true
		}
		m := o.machineFor(mc)
		m.Configure(w5TunedConfig(m.Spec.HardwareThreads(), false))
		e := tpch.NewEngineStorage(tpch.ProfileByName("Quickstep"), m, db, opts)
		m.Observe(machine.ObserveOptions{Profile: true})
		res := e.RunQuery(1) // resets counters+profile, then the full scan
		sc := NumawareStorageCell{
			Machine:  mc,
			Mode:     mode,
			Wall:     res.Wall,
			LAR:      m.Counters().LAR(),
			RemoteSh: report.RemoteDRAMShare(m.Profile()),
			Rows:     len(db.Lineitems),
		}
		rec := finishCell(start, "storage/"+mc+"/"+mode, map[string]string{
			"machine": mc, "storage": mode, "engine": "Quickstep", "query": "q1",
		}, m, sc.Wall)
		rec.Extra = map[string]float64{
			"lar":                sc.LAR,
			"remote_cycle_share": sc.RemoteSh,
			"rows":               float64(sc.Rows),
			"tuples_per_kcycle":  float64(sc.Rows) / sc.Wall * 1e3,
		}
		return cell{storage: &sc, rec: rec}, nil
	})
	if err != nil {
		return NumawareResult{}, err
	}

	out := NumawareResult{
		Join:    map[string]map[string]NumawareJoinCell{},
		Storage: map[string]map[string]NumawareStorageCell{},
	}
	for _, c := range cells {
		out.Records = append(out.Records, c.rec)
		if c.join != nil {
			if out.Join[c.join.Machine] == nil {
				out.Join[c.join.Machine] = map[string]NumawareJoinCell{}
			}
			out.Join[c.join.Machine][c.join.Variant] = *c.join
		}
		if c.storage != nil {
			if out.Storage[c.storage.Machine] == nil {
				out.Storage[c.storage.Machine] = map[string]NumawareStorageCell{}
			}
			out.Storage[c.storage.Machine][c.storage.Mode] = *c.storage
		}
	}

	// Cross-check: every variant must produce the same join answer.
	want := out.Join[numawareMachines[0]][numawareVariants[0]]
	for _, mc := range numawareMachines {
		for _, v := range numawareVariants {
			got := out.Join[mc][v]
			if got.Matches != want.Matches || got.Checksum != want.Checksum {
				return NumawareResult{}, fmt.Errorf(
					"experiments: join answers diverged: %s/%s got (%d, %d), want (%d, %d)",
					mc, v, got.Matches, got.Checksum, want.Matches, want.Checksum)
			}
		}
	}
	return out, nil
}

// operatorOf maps a variant to its operator label.
func operatorOf(variant string) string {
	if variant == "agnostic-tuned" {
		return "hashjoin"
	}
	return "mpsm"
}

// RenderJoin renders the 9-cell join grid.
func (r NumawareResult) RenderJoin() *report.Table {
	t := &report.Table{Title: "NUMA-aware vs agnostic join: MPSM sort-merge vs tuned hash join (W3 tables)"}
	t.Header = []string{"machine", "variant", "operator", "Gcycles", "tuples/kcycle", "LAR", "remote-cycle share", "build%", "probe%"}
	for _, mc := range numawareMachines {
		for _, v := range numawareVariants {
			c := r.Join[mc][v]
			t.AddRow(mc, v, operatorOf(v),
				report.Billions(c.Wall),
				fmt.Sprintf("%6.2f", float64(c.STuples)/c.Wall*1e3),
				fmt.Sprintf("%5.3f", c.LAR),
				fmt.Sprintf("%5.1f%%", c.RemoteSh*100),
				fmt.Sprintf("%4.1f%%", c.Build/c.Wall*100),
				fmt.Sprintf("%4.1f%%", c.Probe/c.Wall*100))
		}
	}
	return t
}

// RenderStorage renders the single-vs-chunked scan comparison.
func (r NumawareResult) RenderStorage() *report.Table {
	t := &report.Table{Title: "TPC-H Q1 scan (Quickstep): single-region vs per-node chunked storage, identical knobs"}
	t.Header = []string{"machine", "single remote share", "chunked remote share", "delta (pp)", "single Gcycles", "chunked Gcycles", "speedup"}
	for _, mc := range numawareMachines {
		s, c := r.Storage[mc]["single"], r.Storage[mc]["chunked"]
		t.AddRow(mc,
			fmt.Sprintf("%5.1f%%", s.RemoteSh*100),
			fmt.Sprintf("%5.1f%%", c.RemoteSh*100),
			fmt.Sprintf("%+5.1f", (c.RemoteSh-s.RemoteSh)*100),
			report.Billions(s.Wall),
			report.Billions(c.Wall),
			fmt.Sprintf("%5.2fx", s.Wall/c.Wall))
	}
	return t
}

// RenderVerdict renders the per-machine verdict on the "agnostic knobs
// suffice" thesis: how the aware operator fares against the flowchart-
// tuned agnostic one, with and without its own supporting knobs.
func (r NumawareResult) RenderVerdict() *report.Table {
	t := &report.Table{Title: "Verdict: where NUMA-aware operators beat the agnostic flowchart"}
	t.Header = []string{"machine", "aware-untuned vs agnostic-tuned", "aware-tuned vs agnostic-tuned", "verdict"}
	for _, mc := range numawareMachines {
		ag := r.Join[mc]["agnostic-tuned"].Wall
		un := r.Join[mc]["aware-untuned"].Wall
		tu := r.Join[mc]["aware-tuned"].Wall
		d1, d2 := ag/un, ag/tu
		verdict := "agnostic knobs suffice"
		switch {
		case d1 > 1.05:
			verdict = "aware wins even untuned"
		case d2 > 1.05:
			verdict = "aware wins, but needs its own knobs"
		case d2 >= 0.95:
			verdict = "parity"
		}
		t.AddRow(mc,
			fmt.Sprintf("%5.2fx", d1),
			fmt.Sprintf("%5.2fx", d2),
			verdict)
	}
	return t
}
