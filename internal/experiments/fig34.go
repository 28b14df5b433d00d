package experiments

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/report"
)

// Fig3Result holds Figure 3: relative runtimes of consecutive
// unaffinitized W1 runs against the affinitized (Sparse) runtime.
type Fig3Result struct {
	SparseCycles float64
	Relative     []float64 // one per run; >= 1 means slower than Sparse
	Records      []Record
}

// Fig3 runs W1 once under Sparse affinity, then s.Fig3Runs times under the
// OS scheduler (each run draws a fresh migration behaviour), reporting
// runtimes relative to the affinitized run. Cell 0 is the Sparse baseline;
// the unaffinitized runs follow, each a fresh machine with its own seed.
func Fig3(s Scale, o Options) (Fig3Result, error) {
	mkMachine := func(place machine.Placement, seed uint64) *machine.Machine {
		m := o.machineFor("A")
		cfg := baseConfig(16)
		cfg.Placement = place
		cfg.Seed = seed
		m.Configure(cfg)
		return m
	}
	type cell struct {
		cycles float64
		rec    Record
	}
	cells, err := core.Collect(o.Runner, 1+s.Fig3Runs, func(i int) (cell, error) {
		start := startCell()
		var m *machine.Machine
		name := "sparse"
		if i == 0 {
			m = mkMachine(machine.PlaceSparse, 1)
		} else {
			m = mkMachine(machine.PlaceNone, uint64(100+i-1))
			name = "run" + strconv.Itoa(i)
		}
		w := runW1(m, s, datagen.MovingClusterDist).Result.WallCycles
		return cell{w, finishCell(start, name,
			map[string]string{"placement": m.Config().Placement.String(), "run": strconv.Itoa(i)},
			m, w)}, nil
	})
	if err != nil {
		return Fig3Result{}, err
	}
	out := Fig3Result{SparseCycles: cells[0].cycles}
	for _, c := range cells {
		out.Records = append(out.Records, c.rec)
	}
	for _, c := range cells[1:] {
		out.Relative = append(out.Relative, c.cycles/out.SparseCycles)
	}
	return out, nil
}

// Render renders Figure 3.
func (r Fig3Result) Render() *report.Table {
	t := &report.Table{
		Title:  "Fig 3: OS scheduler vs Sparse affinity, consecutive W1 runs, Machine A",
		Header: []string{"run", "relative runtime (no affinity / Sparse)"},
	}
	for i, rel := range r.Relative {
		t.AddRow(strconv.Itoa(i+1), rel)
	}
	return t
}

// Table3Result holds Table III: the perf-counter profile of W1 under the
// default OS scheduler versus Sparse pinning.
type Table3Result struct {
	Default  machine.Counters
	Modified machine.Counters
	Records  []Record
}

// Table3 profiles W1 on Machine A under the OS scheduler (a
// migration-heavy draw, as the paper's default exhibited) and under the
// Sparse policy.
func Table3(s Scale, o Options) (Table3Result, error) {
	placements := []machine.Placement{machine.PlaceNone, machine.PlaceSparse}
	names := []string{"default", "modified"}
	type cell struct {
		counters machine.Counters
		rec      Record
	}
	cells, err := core.Collect(o.Runner, len(placements), func(i int) (cell, error) {
		start := startCell()
		place := placements[i]
		m := o.machineFor("A")
		cfg := baseConfig(16)
		cfg.Placement = place
		cfg.AutoNUMA = place == machine.PlaceNone // OS default keeps balancing on
		cfg.Seed = 104                            // a representative noisy draw
		m.Configure(cfg)
		res := runW1(m, s, datagen.MovingClusterDist).Result
		return cell{res.Counters, finishCell(start, names[i],
			map[string]string{"placement": place.String()}, m, res.WallCycles)}, nil
	})
	if err != nil {
		return Table3Result{}, err
	}
	return Table3Result{
		Default:  cells[0].counters,
		Modified: cells[1].counters,
		Records:  []Record{cells[0].rec, cells[1].rec},
	}, nil
}

// Render renders Table III with percent changes.
func (r Table3Result) Render() *report.Table {
	t := &report.Table{
		Title:  "Table III: profiling thread placement, W1 Machine A (default vs Sparse)",
		Header: []string{"metric", "default", "modified", "change"},
	}
	row := func(name string, a, b uint64) {
		change := "n/a"
		if a > 0 {
			change = report.Pct(float64(int64(b)-int64(a)) / float64(a))
		}
		t.AddRow(name, a, b, change)
	}
	row("thread migrations", r.Default.ThreadMigrations, r.Modified.ThreadMigrations)
	row("cache misses", r.Default.CacheMisses, r.Modified.CacheMisses)
	row("local memory accesses", r.Default.LocalAccesses, r.Modified.LocalAccesses)
	row("remote memory accesses", r.Default.RemoteAccesses, r.Modified.RemoteAccesses)
	t.AddRow("local access ratio",
		r.Default.LAR(), r.Modified.LAR(),
		report.Pct((r.Modified.LAR()-r.Default.LAR())/r.Default.LAR()))
	return t
}

// Fig4Threads are the worker counts swept in Figure 4.
var Fig4Threads = []int{2, 4, 8, 16}

// Fig4Result holds Figure 4: Dense vs Sparse runtimes per dataset and
// thread count on Machine A.
type Fig4Result struct {
	Datasets []datagen.Distribution
	Threads  []int
	// Cycles[dist][i] for Threads[i], per placement.
	Dense   map[datagen.Distribution][]float64
	Sparse  map[datagen.Distribution][]float64
	Records []Record
}

// Fig4 compares the Sparse and Dense affinitization strategies on W1
// across datasets and thread counts.
func Fig4(s Scale, o Options) (Fig4Result, error) {
	out := Fig4Result{
		Datasets: datagen.Distributions(),
		Threads:  Fig4Threads,
		Dense:    map[datagen.Distribution][]float64{},
		Sparse:   map[datagen.Distribution][]float64{},
	}
	places := []machine.Placement{machine.PlaceDense, machine.PlaceSparse}
	nCells := len(out.Datasets) * len(Fig4Threads) * len(places)
	type cell struct {
		cycles float64
		rec    Record
	}
	cells, err := core.Collect(o.Runner, nCells, func(i int) (cell, error) {
		start := startCell()
		dist := out.Datasets[i/(len(Fig4Threads)*len(places))]
		threads := Fig4Threads[i/len(places)%len(Fig4Threads)]
		place := places[i%len(places)]
		m := o.machineFor("A")
		cfg := baseConfig(threads)
		cfg.Placement = place
		m.Configure(cfg)
		w := runW1(m, s, dist).Result.WallCycles
		return cell{w, finishCell(start,
			string(dist)+"/"+strconv.Itoa(threads)+"T/"+place.String(),
			map[string]string{
				"dataset":   string(dist),
				"threads":   strconv.Itoa(threads),
				"placement": place.String(),
			}, m, w)}, nil
	})
	if err != nil {
		return Fig4Result{}, err
	}
	for i, c := range cells {
		dist := out.Datasets[i/(len(Fig4Threads)*len(places))]
		if places[i%len(places)] == machine.PlaceDense {
			out.Dense[dist] = append(out.Dense[dist], c.cycles)
		} else {
			out.Sparse[dist] = append(out.Sparse[dist], c.cycles)
		}
		out.Records = append(out.Records, c.rec)
	}
	return out, nil
}

// Render renders Figure 4.
func (r Fig4Result) Render() *report.Table {
	t := &report.Table{
		Title:  "Fig 4: Sparse vs Dense thread affinity, W1, Machine A (billion cycles)",
		Header: []string{"dataset", "threads", "Dense", "Sparse"},
	}
	for _, dist := range r.Datasets {
		for i, threads := range r.Threads {
			t.AddRow(string(dist), threads,
				report.Billions(r.Dense[dist][i]),
				report.Billions(r.Sparse[dist][i]))
		}
	}
	return t
}
