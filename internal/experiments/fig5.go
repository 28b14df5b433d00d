package experiments

import (
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/report"
	"repro/internal/vmm"
)

// fig5Policies are the placement policies swept in Figure 5a/5b.
var fig5Policies = []vmm.Policy{vmm.FirstTouch, vmm.Interleave, vmm.Localalloc, vmm.Preferred}

// Fig5aResult holds Figures 5a and 5b: W1 runtime and local access ratio
// per memory placement policy with AutoNUMA on and off, Machine A.
type Fig5aResult struct {
	Policies []vmm.Policy
	// Indexed by policy position; On = AutoNUMA enabled.
	OnCycles  []float64
	OffCycles []float64
	OnLAR     []float64
	OffLAR    []float64
	Records   []Record
}

// Fig5a sweeps placement policy x AutoNUMA for W1 on Machine A.
func Fig5a(s Scale, o Options) (Fig5aResult, error) {
	out := Fig5aResult{Policies: fig5Policies}
	type cell struct {
		cycles, lar float64
		rec         Record
	}
	autos := []bool{true, false}
	cells, err := core.Collect(o.Runner, len(fig5Policies)*len(autos), func(i int) (cell, error) {
		start := startCell()
		m := o.machineFor("A")
		cfg := baseConfig(16)
		cfg.Policy = fig5Policies[i/len(autos)]
		cfg.AutoNUMA = autos[i%len(autos)]
		m.Configure(cfg)
		res := runW1(m, s, datagen.MovingClusterDist)
		auto := "off"
		if cfg.AutoNUMA {
			auto = "on"
		}
		rec := finishCell(start, cfg.Policy.String()+"/auto="+auto,
			map[string]string{"policy": cfg.Policy.String(), "autonuma": auto},
			m, res.Result.WallCycles)
		rec.Extra = map[string]float64{"lar": res.Result.Counters.LAR()}
		return cell{res.Result.WallCycles, res.Result.Counters.LAR(), rec}, nil
	})
	if err != nil {
		return Fig5aResult{}, err
	}
	for i, c := range cells {
		if autos[i%len(autos)] {
			out.OnCycles = append(out.OnCycles, c.cycles)
			out.OnLAR = append(out.OnLAR, c.lar)
		} else {
			out.OffCycles = append(out.OffCycles, c.cycles)
			out.OffLAR = append(out.OffLAR, c.lar)
		}
		out.Records = append(out.Records, c.rec)
	}
	return out, nil
}

// Render renders Figure 5a (runtime).
func (r Fig5aResult) Render() *report.Table {
	t := &report.Table{
		Title:  "Fig 5a: AutoNUMA effect on W1 runtime by placement policy, Machine A (billion cycles)",
		Header: []string{"policy", "AutoNUMA on", "AutoNUMA off"},
	}
	for i, p := range r.Policies {
		t.AddRow(p.String(), report.Billions(r.OnCycles[i]), report.Billions(r.OffCycles[i]))
	}
	return t
}

// RenderLAR renders Figure 5b (local access ratio).
func (r Fig5aResult) RenderLAR() *report.Table {
	t := &report.Table{
		Title:  "Fig 5b: AutoNUMA effect on local access ratio, W1, Machine A",
		Header: []string{"policy", "LAR on", "LAR off"},
	}
	for i, p := range r.Policies {
		t.AddRow(p.String(), r.OnLAR[i], r.OffLAR[i])
	}
	return t
}

// Fig5cResult holds Figure 5c: W1 runtime per allocator with THP off/on.
type Fig5cResult struct {
	Allocators []string
	Off        []float64
	On         []float64
	Records    []Record
}

// Fig5c sweeps allocator x THP for W1 on Machine A (First Touch, AutoNUMA
// off, as the paper isolates the hugepage mechanism).
func Fig5c(s Scale, o Options) (Fig5cResult, error) {
	out := Fig5cResult{Allocators: alloc.WorkloadNames()}
	thps := []bool{false, true}
	type cell struct {
		cycles float64
		rec    Record
	}
	cells, err := core.Collect(o.Runner, len(out.Allocators)*len(thps), func(i int) (cell, error) {
		start := startCell()
		m := o.machineFor("A")
		cfg := baseConfig(16)
		cfg.Allocator = out.Allocators[i/len(thps)]
		cfg.THP = thps[i%len(thps)]
		m.Configure(cfg)
		w := runW1(m, s, datagen.MovingClusterDist).Result.WallCycles
		thp := "off"
		if cfg.THP {
			thp = "on"
		}
		return cell{w, finishCell(start, cfg.Allocator+"/thp="+thp,
			map[string]string{"allocator": cfg.Allocator, "thp": thp}, m, w)}, nil
	})
	if err != nil {
		return Fig5cResult{}, err
	}
	for i, c := range cells {
		if thps[i%len(thps)] {
			out.On = append(out.On, c.cycles)
		} else {
			out.Off = append(out.Off, c.cycles)
		}
		out.Records = append(out.Records, c.rec)
	}
	return out, nil
}

// Render renders Figure 5c.
func (r Fig5cResult) Render() *report.Table {
	t := &report.Table{
		Title:  "Fig 5c: impact of THP on memory allocators, W1, Machine A (billion cycles)",
		Header: []string{"allocator", "THP off", "THP on"},
	}
	for i, a := range r.Allocators {
		t.AddRow(a, report.Billions(r.Off[i]), report.Billions(r.On[i]))
	}
	return t
}

// Fig5dResult holds Figure 5d: the combined effect of AutoNUMA+THP and
// placement policy across the three machines.
type Fig5dResult struct {
	Machines []string
	Policies []vmm.Policy
	// Cycles[machine][policy index], daemons on and off.
	On      map[string][]float64
	Off     map[string][]float64
	Records []Record
}

// Fig5d sweeps {First Touch, Interleave, Localalloc} x {daemons on, off}
// x {A, B, C} for W1.
func Fig5d(s Scale, o Options) (Fig5dResult, error) {
	out := Fig5dResult{
		Machines: []string{"A", "B", "C"},
		Policies: []vmm.Policy{vmm.FirstTouch, vmm.Interleave, vmm.Localalloc},
		On:       map[string][]float64{},
		Off:      map[string][]float64{},
	}
	daemonsStates := []bool{true, false}
	per := len(out.Policies) * len(daemonsStates)
	type cell struct {
		cycles float64
		rec    Record
	}
	cells, err := core.Collect(o.Runner, len(out.Machines)*per, func(i int) (cell, error) {
		start := startCell()
		mc := out.Machines[i/per]
		m := o.machineFor(mc)
		cfg := baseConfig(m.Spec.HardwareThreads())
		cfg.Policy = out.Policies[i/len(daemonsStates)%len(out.Policies)]
		daemons := daemonsStates[i%len(daemonsStates)]
		cfg.AutoNUMA = daemons
		cfg.THP = daemons
		m.Configure(cfg)
		w := runW1(m, s, datagen.MovingClusterDist).Result.WallCycles
		state := "off"
		if daemons {
			state = "on"
		}
		return cell{w, finishCell(start, mc+"/"+cfg.Policy.String()+"/daemons="+state,
			map[string]string{
				"machine": mc,
				"policy":  cfg.Policy.String(),
				"daemons": state,
			}, m, w)}, nil
	})
	if err != nil {
		return Fig5dResult{}, err
	}
	for i, c := range cells {
		mc := out.Machines[i/per]
		if daemonsStates[i%len(daemonsStates)] {
			out.On[mc] = append(out.On[mc], c.cycles)
		} else {
			out.Off[mc] = append(out.Off[mc], c.cycles)
		}
		out.Records = append(out.Records, c.rec)
	}
	return out, nil
}

// Render renders Figure 5d.
func (r Fig5dResult) Render() *report.Table {
	t := &report.Table{
		Title:  "Fig 5d: combined AutoNUMA+THP effect by placement policy and machine, W1 (billion cycles)",
		Header: []string{"machine", "policy", "daemons on", "daemons off"},
	}
	for _, mc := range r.Machines {
		for i, pol := range r.Policies {
			t.AddRow("Machine "+mc, pol.String(),
				report.Billions(r.On[mc][i]), report.Billions(r.Off[mc][i]))
		}
	}
	return t
}
