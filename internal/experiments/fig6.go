package experiments

import (
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/vmm"
)

// fig6Policies are the placement policies of the Figure 6 grids.
var fig6Policies = []vmm.Policy{vmm.FirstTouch, vmm.Interleave, vmm.Localalloc}

// Fig6Result is one allocator x policy grid for one workload on one
// machine (one subplot of Figure 6 or Figure 7a-d).
type Fig6Result struct {
	Title      string
	Machine    string
	Allocators []string
	Policies   []vmm.Policy
	// Cycles[allocator index][policy index].
	Cycles  [][]float64
	Records []Record
}

// sweepAllocPolicy runs the given workload for every allocator x policy
// cell, each on a fresh machine, dispatched through the grid runner.
func sweepAllocPolicy(o Options, title, mc string, threads int, run func(m *machine.Machine) float64) (Fig6Result, error) {
	out := Fig6Result{
		Title:      title,
		Machine:    mc,
		Allocators: alloc.WorkloadNames(),
		Policies:   fig6Policies,
	}
	type cell struct {
		cycles float64
		rec    Record
	}
	cells, err := core.Collect(o.Runner, len(out.Allocators)*len(out.Policies), func(i int) (cell, error) {
		start := startCell()
		m := o.machineFor(mc)
		cfg := baseConfig(threads)
		if threads <= 0 {
			cfg.Threads = m.Spec.HardwareThreads()
		}
		cfg.Allocator = out.Allocators[i/len(out.Policies)]
		cfg.Policy = out.Policies[i%len(out.Policies)]
		m.Configure(cfg)
		w := run(m)
		return cell{w, finishCell(start, mc+"/"+cfg.Allocator+"/"+cfg.Policy.String(),
			map[string]string{
				"machine":   mc,
				"allocator": cfg.Allocator,
				"policy":    cfg.Policy.String(),
			}, m, w)}, nil
	})
	if err != nil {
		return Fig6Result{}, err
	}
	for i := range cells {
		out.Records = append(out.Records, cells[i].rec)
	}
	for i := 0; i < len(out.Allocators); i++ {
		row := make([]float64, len(out.Policies))
		for j := range row {
			row[j] = cells[i*len(out.Policies)+j].cycles
		}
		out.Cycles = append(out.Cycles, row)
	}
	return out, nil
}

// Fig6W1 produces Figure 6a/6b/6c: W1 across allocators and policies on
// the given machine ("A", "B" or "C").
func Fig6W1(s Scale, o Options, mc string) (Fig6Result, error) {
	return sweepAllocPolicy(o, "Fig 6 W1 (holistic aggregation), Machine "+mc, mc, 0,
		func(m *machine.Machine) float64 {
			return runW1(m, s, datagen.MovingClusterDist).Result.WallCycles
		})
}

// Fig6W2 produces Figure 6d/6e/6f: W2 across allocators and policies.
func Fig6W2(s Scale, o Options, mc string) (Fig6Result, error) {
	return sweepAllocPolicy(o, "Fig 6 W2 (distributive aggregation), Machine "+mc, mc, 0,
		func(m *machine.Machine) float64 {
			return runW2(m, s).Result.WallCycles
		})
}

// Fig6W3 produces Figure 6g/6h/6i: W3 across allocators and policies.
func Fig6W3(s Scale, o Options, mc string) (Fig6Result, error) {
	return sweepAllocPolicy(o, "Fig 6 W3 (hash join), Machine "+mc, mc, 0,
		func(m *machine.Machine) float64 {
			return runW3(m, s).Result.WallCycles
		})
}

// Render renders one Figure 6 grid.
func (r Fig6Result) Render() *report.Table {
	t := &report.Table{Title: r.Title + " (billion cycles)"}
	t.Header = []string{"allocator"}
	for _, p := range r.Policies {
		t.Header = append(t.Header, p.String())
	}
	for i, name := range r.Allocators {
		cells := []any{name}
		for _, v := range r.Cycles[i] {
			cells = append(cells, report.Billions(v))
		}
		t.AddRow(cells...)
	}
	return t
}

// Best returns the fastest cell of the grid.
func (r Fig6Result) Best() (allocator string, policy vmm.Policy, cycles float64) {
	cycles = r.Cycles[0][0]
	allocator, policy = r.Allocators[0], r.Policies[0]
	for i := range r.Cycles {
		for j, v := range r.Cycles[i] {
			if v < cycles {
				cycles, allocator, policy = v, r.Allocators[i], r.Policies[j]
			}
		}
	}
	return allocator, policy, cycles
}

// Cell returns the grid cell for an allocator and policy.
func (r Fig6Result) Cell(allocator string, policy vmm.Policy) float64 {
	for i, a := range r.Allocators {
		if a != allocator {
			continue
		}
		for j, p := range r.Policies {
			if p == policy {
				return r.Cycles[i][j]
			}
		}
	}
	panic("experiments: unknown grid cell " + allocator)
}

// Fig6jResult holds Figure 6j: W1 on Machine A across allocators and
// dataset distributions (Interleave placement).
type Fig6jResult struct {
	Allocators []string
	Datasets   []datagen.Distribution
	Cycles     [][]float64 // [allocator][dataset]
	Records    []Record
}

// Fig6j varies the dataset distribution under each allocator.
func Fig6j(s Scale, o Options) (Fig6jResult, error) {
	out := Fig6jResult{Allocators: alloc.WorkloadNames(), Datasets: datagen.Distributions()}
	type cell struct {
		cycles float64
		rec    Record
	}
	cells, err := core.Collect(o.Runner, len(out.Allocators)*len(out.Datasets), func(i int) (cell, error) {
		start := startCell()
		dist := out.Datasets[i%len(out.Datasets)]
		m := o.machineFor("A")
		cfg := baseConfig(16)
		cfg.Allocator = out.Allocators[i/len(out.Datasets)]
		cfg.Policy = vmm.Interleave
		m.Configure(cfg)
		w := runW1(m, s, dist).Result.WallCycles
		return cell{w, finishCell(start, cfg.Allocator+"/"+string(dist),
			map[string]string{"allocator": cfg.Allocator, "dataset": string(dist)},
			m, w)}, nil
	})
	if err != nil {
		return Fig6jResult{}, err
	}
	for i := range cells {
		out.Records = append(out.Records, cells[i].rec)
	}
	for i := 0; i < len(out.Allocators); i++ {
		row := make([]float64, len(out.Datasets))
		for j := range row {
			row[j] = cells[i*len(out.Datasets)+j].cycles
		}
		out.Cycles = append(out.Cycles, row)
	}
	return out, nil
}

// Render renders Figure 6j.
func (r Fig6jResult) Render() *report.Table {
	t := &report.Table{Title: "Fig 6j: W1 by dataset distribution and allocator, Machine A (billion cycles)"}
	t.Header = []string{"allocator"}
	for _, d := range r.Datasets {
		t.Header = append(t.Header, string(d))
	}
	for i, name := range r.Allocators {
		cells := []any{name}
		for _, v := range r.Cycles[i] {
			cells = append(cells, report.Billions(v))
		}
		t.AddRow(cells...)
	}
	return t
}
