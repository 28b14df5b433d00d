package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/vmm"
)

// The adapt experiment (an extension beyond the paper) asks the question
// the static tuning methodology cannot: what happens when the workload's
// placement affinity changes mid-run? A multi-phase driver cycles each
// worker through point-lookup, scan and join phases over partitioned
// data; in the "phased" variant the partition each worker touches rotates
// every phase, so no static placement stays local. The experiment
// compares the OS default, a family of static placements (their best is
// the static tune optimum), and the static baseline with the online
// orchestrator attached, on every machine preset.
//
// Phases are bounded in simulated cycles, not iterations: every
// configuration gets the same cycle budget per phase and the score is the
// number of accesses completed (ops). A configuration that keeps accesses
// local completes more of them per cycle.

// adaptWorkloads are the two access schedules: "steady" keeps each worker
// on its own partition (a static optimum exists); "phased" rotates the
// target partition every phase (only adaptation can track it).
var adaptWorkloads = []string{"steady", "phased"}

// adaptConfigs names the configuration family; "default" is the OS
// out-of-the-box setup, "adaptive" is the static baseline plus the
// orchestrator, and the rest are the static candidates whose best is the
// static tune optimum.
var adaptConfigs = []string{"default", "firsttouch", "interleave", "autonuma", "adaptive"}

// adaptPhases is the phase schedule length: two rounds of
// lookup -> scan -> join.
const adaptPhases = 6

// adaptPhaseCost sizes a phase's per-thread cycle budget as a multiple of
// the partition's line count, so phases scale with the partition.
const adaptPhaseCost = 90

// AdaptCell is one machine x workload x config measurement.
type AdaptCell struct {
	Machine  string
	Workload string
	Config   string
	Wall     float64
	Ops      float64 // accesses completed across all workers
	LAR      float64
	Stats    orchestrator.Stats // zero unless Config == "adaptive"
}

// AdaptResult holds the adaptive placement experiment.
type AdaptResult struct {
	Cells   []AdaptCell
	Records []Record
}

// adaptMachines lists the machine presets the experiment sweeps.
var adaptMachines = []string{"A", "B", "C"}

// adaptConfigFor builds the RunConfig for a named configuration. workers
// is one per node, so Sparse pins exactly one worker per node and a
// migrated thread always finds a free context.
func adaptConfigFor(name string, workers int) machine.RunConfig {
	switch name {
	case "default":
		return machine.DefaultConfig(workers)
	case "interleave":
		cfg := baseConfig(workers)
		cfg.Policy = vmm.Interleave
		return cfg
	case "autonuma":
		cfg := baseConfig(workers)
		cfg.AutoNUMA = true
		return cfg
	default: // "firsttouch" and the "adaptive" baseline
		return baseConfig(workers)
	}
}

// adaptRunCell loads the partitions and runs the phase schedule under one
// configuration, returning the measured cell and its record.
func adaptRunCell(s Scale, o Options, letter, workload, config string) (AdaptCell, Record) {
	start := startCell()
	m := o.machineFor(letter)
	workers := m.Spec.Topo.Nodes()
	cfg := adaptConfigFor(config, workers)
	m.Configure(cfg)

	partBytes := uint64(s.AdaptPartKB) << 10
	partLines := int(partBytes / 64)

	// Load: every worker first-touches its own partition with one write
	// per page. Under Sparse + FirstTouch partition w lands on node w;
	// under the OS default it lands wherever the scheduler put the worker.
	// One touch per page (not per line) keeps the load Run's wall far
	// below the phase Run's: the machine clock is a monotonic maximum
	// across Runs, so a load that outlasted the phases would leave the
	// placement daemon no window to fire in.
	bases := make([]uint64, workers)
	m.Run(workers, func(t *machine.Thread) {
		w := t.ID()
		bases[w] = t.Malloc(partBytes)
		for p := uint64(0); p < partBytes; p += vmm.PageSize {
			t.Write(bases[w]+p, 8)
		}
	})
	m.ResetCounters()

	var orch *orchestrator.Orchestrator
	if config == "adaptive" {
		orch = orchestrator.New(o.Adapt.config())
		orch.Attach(m)
		defer orch.Detach()
	}

	rot := 0
	if workload == "phased" {
		rot = 1
	}
	phaseCycles := float64(partLines) * adaptPhaseCost
	ops := make([]uint64, workers)
	// adaptBody confines cross-worker interaction to the simulated memory
	// API: bases is read-only during the phases, ops slots are per-worker.
	res := m.Run(workers, adaptBody(bases, partLines, phaseCycles, rot, ops))

	cell := AdaptCell{
		Machine:  m.Spec.Name,
		Workload: workload,
		Config:   config,
		Wall:     res.WallCycles,
		LAR:      res.Counters.LAR(),
	}
	for _, n := range ops {
		cell.Ops += float64(n)
	}
	if orch != nil {
		cell.Stats = orch.Stats()
	}

	name := letter + "/" + workload + "/" + config
	rec := finishCell(start, name,
		map[string]string{"machine": letter, "workload": workload, "config": config},
		m, res.WallCycles)
	rec.Extra = map[string]float64{
		"ops":          cell.Ops,
		"lar":          cell.LAR,
		"ticks":        float64(cell.Stats.Ticks),
		"thread_moves": float64(cell.Stats.ThreadMoves),
		"page_moves":   float64(cell.Stats.PageMoves),
		"reweights":    float64(cell.Stats.Reweights),
	}
	return cell, rec
}

// adaptBody is the multi-phase worker: adaptPhases phases, each bounded
// by a per-thread cycle budget, cycling point-lookup -> scan -> join.
// Phase k targets partition (w + k*rot) mod W; rot 0 is the steady
// schedule, rot 1 rotates the target every phase. ops[w] receives worker
// w's completed access count (safe: the scheduler runs one thread at a
// time and each worker only writes its own slot).
func adaptBody(bases []uint64, partLines int, phaseCycles float64, rot int, ops []uint64) func(*machine.Thread) {
	return func(t *machine.Thread) {
		w := t.ID()
		workers := len(bases)
		own := bases[w]
		rng := t.RNG().Derive(97)
		var n uint64
		for k := 0; k < adaptPhases; k++ {
			target := bases[(w+k*rot)%workers]
			end := t.Cycles() + phaseCycles
			switch k % 3 {
			case 0: // point lookups: random 8-byte reads in the target
				for t.Cycles() < end {
					for i := 0; i < 64; i++ {
						t.Read(target+rng.Uint64n(uint64(partLines))*64, 8)
					}
					n += 64
				}
			case 1: // scan: sequential chunks over the target, wrapping
				off := 0
				for t.Cycles() < end {
					chunk := 256
					if off+chunk > partLines {
						chunk = partLines - off
					}
					t.ReadRun(target+uint64(off)*64, 64, chunk)
					n += uint64(chunk)
					off += chunk
					if off >= partLines {
						off = 0
					}
				}
			case 2: // join: sequential build side (own) + random probes (target)
				off := 0
				for t.Cycles() < end {
					for i := 0; i < 32; i++ {
						t.Read(own+uint64(off)*64, 8)
						t.Read(target+rng.Uint64n(uint64(partLines))*64, 8)
						off++
						if off >= partLines {
							off = 0
						}
					}
					n += 64
				}
			}
		}
		ops[w] = n
	}
}

// AdaptOverheadProbe runs the Machine A steady cell with or without the
// orchestrator attached, at a fixed partition size so runs are comparable
// across hosts and scales. The bench gate tracks on/off as a ratio: on
// the steady workload the orchestrator decides "do nothing" every tick,
// so the ratio is its pure observation-and-planning overhead.
func AdaptOverheadProbe(on bool) error {
	config := "firsttouch"
	if on {
		config = "adaptive"
	}
	_, _ = adaptRunCell(Scale{AdaptPartKB: Cal.AdaptPartKB}, Options{}, "A", "steady", config)
	return nil
}

// Adapt runs the adaptive placement experiment at a scale.
func Adapt(s Scale, o Options) (AdaptResult, error) {
	type idx struct{ mc, wl, cf int }
	var grid []idx
	for mi := range adaptMachines {
		for wi := range adaptWorkloads {
			for ci := range adaptConfigs {
				grid = append(grid, idx{mi, wi, ci})
			}
		}
	}
	type cell struct {
		c   AdaptCell
		rec Record
	}
	cells, err := core.Collect(o.Runner, len(grid), func(i int) (cell, error) {
		g := grid[i]
		c, rec := adaptRunCell(s, o, adaptMachines[g.mc], adaptWorkloads[g.wl], adaptConfigs[g.cf])
		return cell{c, rec}, nil
	})
	if err != nil {
		return AdaptResult{}, err
	}
	out := AdaptResult{}
	for _, c := range cells {
		out.Cells = append(out.Cells, c.c)
		out.Records = append(out.Records, c.rec)
	}
	return out, nil
}

// staticBest returns the best (highest-ops) static configuration for one
// machine x workload group: the static tune optimum the orchestrator is
// judged against. "default" and "adaptive" are excluded.
func (r AdaptResult) staticBest(mc, wl string) (AdaptCell, bool) {
	var best AdaptCell
	found := false
	for _, c := range r.Cells {
		if c.Machine != mc || c.Workload != wl || c.Config == "default" || c.Config == "adaptive" {
			continue
		}
		if !found || c.Ops > best.Ops {
			best, found = c, true
		}
	}
	return best, found
}

// find returns the cell for one machine x workload x config.
func (r AdaptResult) find(mc, wl, cf string) (AdaptCell, bool) {
	for _, c := range r.Cells {
		if c.Machine == mc && c.Workload == wl && c.Config == cf {
			return c, true
		}
	}
	return AdaptCell{}, false
}

// machines returns the distinct machine names in grid order.
func (r AdaptResult) machines() []string {
	var out []string
	for _, c := range r.Cells {
		seen := false
		for _, m := range out {
			if m == c.Machine {
				seen = true
			}
		}
		if !seen {
			out = append(out, c.Machine)
		}
	}
	return out
}

// Render renders the throughput comparison: ops completed per
// configuration with the adaptive-vs-static-optimum ratio.
func (r AdaptResult) Render() *report.Table {
	t := &report.Table{
		Title: "Adaptive placement: accesses completed under a fixed cycle budget (millions; higher is better)",
		Header: []string{"machine", "workload", "default", "firsttouch", "interleave",
			"autonuma", "adaptive", "vs static best"},
	}
	for _, mc := range r.machines() {
		for _, wl := range adaptWorkloads {
			row := []any{mc, wl}
			for _, cf := range []string{"default", "firsttouch", "interleave", "autonuma", "adaptive"} {
				c, ok := r.find(mc, wl, cf)
				if !ok {
					row = append(row, "-")
					continue
				}
				row = append(row, c.Ops/1e6)
			}
			ratio := "-"
			if ad, ok := r.find(mc, wl, "adaptive"); ok {
				if best, ok := r.staticBest(mc, wl); ok && best.Ops > 0 {
					ratio = fmt.Sprintf("%+.1f%%", 100*(ad.Ops-best.Ops)/best.Ops)
				}
			}
			row = append(row, ratio)
			t.AddRow(row...)
		}
	}
	return t
}

// RenderActions renders what the orchestrator did per adaptive cell: the
// phase-change story (thread and page migrations, reweights) next to the
// locality it recovered.
func (r AdaptResult) RenderActions() *report.Table {
	t := &report.Table{
		Title:  "Adaptive placement: orchestrator actions and recovered locality",
		Header: []string{"machine", "workload", "ticks", "thread moves", "page moves", "reweights", "LAR adaptive", "LAR static best"},
	}
	for _, mc := range r.machines() {
		for _, wl := range adaptWorkloads {
			ad, ok := r.find(mc, wl, "adaptive")
			if !ok {
				continue
			}
			bestLAR := "-"
			if best, ok := r.staticBest(mc, wl); ok {
				bestLAR = fmt.Sprintf("%.3f", best.LAR)
			}
			t.AddRow(mc, wl, ad.Stats.Ticks, ad.Stats.ThreadMoves,
				ad.Stats.PageMoves, ad.Stats.Reweights,
				fmt.Sprintf("%.3f", ad.LAR), bestLAR)
		}
	}
	return t
}
