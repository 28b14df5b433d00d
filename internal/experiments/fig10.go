package experiments

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/topology"
)

// Fig10Result validates the decision flowchart: the advisor's
// recommendation for a W1-like workload versus the measured optimum of the
// full configuration grid.
type Fig10Result struct {
	Recommendation core.Recommendation
	AdvisedCycles  float64
	DefaultCycles  float64
	GridBest       string
	GridBestCycles float64
	Records        []Record
}

// Fig10 runs W1 under the advised configuration, the OS default, and the
// Figure 6 grid's best cell, on Machine A. Records include the advised
// and default cells plus the full embedded Fig6W1 grid.
func Fig10(s Scale, o Options) (Fig10Result, error) {
	tr, err := core.WorkloadTraits("W1")
	if err != nil {
		return Fig10Result{}, err
	}
	rec := core.Advise(tr)
	out := Fig10Result{Recommendation: rec}

	cfgs := []machine.RunConfig{rec.Apply(16), machine.DefaultConfig(16)}
	cfgs[1].Seed = 9
	names := []string{"advised", "default"}
	type cell struct {
		cycles float64
		rec    Record
	}
	cells, err := core.Collect(o.Runner, len(cfgs), func(i int) (cell, error) {
		start := startCell()
		m := o.machineFor("A")
		m.Configure(cfgs[i])
		w := runW1(m, s, datagen.MovingClusterDist).Result.WallCycles
		return cell{w, finishCell(start, names[i],
			map[string]string{"config": names[i]}, m, w)}, nil
	})
	if err != nil {
		return Fig10Result{}, err
	}
	out.AdvisedCycles, out.DefaultCycles = cells[0].cycles, cells[1].cycles
	out.Records = []Record{cells[0].rec, cells[1].rec}

	grid, err := Fig6W1(s, o, "A")
	if err != nil {
		return Fig10Result{}, err
	}
	bestAlloc, bestPol, bestCycles := grid.Best()
	out.GridBest = bestAlloc + " + " + bestPol.String()
	out.GridBestCycles = bestCycles
	out.Records = append(out.Records, grid.Records...)
	return out, nil
}

// Render renders the flowchart validation.
func (r Fig10Result) Render() *report.Table {
	t := &report.Table{
		Title:  "Fig 10: decision flowchart validation, W1, Machine A (billion cycles)",
		Header: []string{"configuration", "cycles", "vs default"},
	}
	t.AddRow("OS default", report.Billions(r.DefaultCycles), report.Pct(0))
	t.AddRow("advised ("+r.Recommendation.Allocator+" + "+r.Recommendation.Policy.String()+")",
		report.Billions(r.AdvisedCycles),
		report.Pct(core.Speedup(r.DefaultCycles, r.AdvisedCycles)))
	t.AddRow("grid best ("+r.GridBest+")",
		report.Billions(r.GridBestCycles),
		report.Pct(core.Speedup(r.DefaultCycles, r.GridBestCycles)))
	return t
}

// Table2 renders Table II: the simulated machine specifications.
func Table2() *report.Table {
	t := &report.Table{
		Title: "Table II: machine specifications (simulated)",
		Header: []string{"system", "nodes", "cores/threads", "LLC/node", "mem/node",
			"remote latency", "link GT/s"},
	}
	for _, spec := range machine.Specs() {
		topo := spec.Topo
		worst := 1.0
		for n := 0; n < topo.Nodes(); n++ {
			if l := topo.Latency(0, topology.NodeID(n)); l > worst {
				worst = l
			}
		}
		t.AddRow(spec.Name, topo.Nodes(),
			strconv.Itoa(spec.Cores())+"/"+strconv.Itoa(spec.HardwareThreads()),
			strconv.Itoa(spec.LLCBytesPerNode>>20)+"MiB",
			strconv.Itoa(int(spec.MemPerNodeBytes>>30))+"GiB",
			worst, topo.LinkBandwidthGTs())
	}
	return t
}
