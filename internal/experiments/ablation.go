package experiments

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/topology"
	"repro/internal/vmm"
)

// Ablations isolate the simulator's design choices, showing how much each
// modelled mechanism contributes to the headline result (W1 on Machine A,
// OS default vs tuned). They answer "would a simpler simulator have
// reproduced the paper?" — the reproducibility analogue of an ablation
// study.
type AblationResult struct {
	Names   []string
	Default []float64 // OS-default configuration wall cycles
	Tuned   []float64 // tuned configuration wall cycles
	Gain    []float64 // (default-tuned)/default under the ablation
	Records []Record
}

// ablation is one modified machine construction.
type ablation struct {
	name  string
	tweak func(m *machine.Machine)
}

// Ablate runs the headline W1 experiment under each ablation of the cost
// model.
func Ablate(s Scale, o Options) (AblationResult, error) {
	cases := []ablation{
		{"full model", func(m *machine.Machine) {}},
		{"no controller contention", func(m *machine.Machine) {
			m.P.ControllerCoeff = 0
		}},
		{"no interconnect sharing", func(m *machine.Machine) {
			m.P.LinkCoeff = 0
		}},
		{"no coherence transfers", func(m *machine.Machine) {
			m.P.CoherenceCycles = 0
		}},
		{"free AutoNUMA (no scan tax, free migrations)", func(m *machine.Machine) {
			m.P.AutoNUMASampleCost = 0
			m.P.AutoNUMAHintFault = 0
			m.P.AutoNUMAPageCost = 0
			m.P.AutoNUMAShootdown = 0
		}},
		{"free THP (no churn, splits or promote cost)", func(m *machine.Machine) {
			m.P.THPChurnCycles = 0
			m.P.THPSplitCost = 0
			m.P.THPPromoteCost = 0
		}},
		{"free thread migration", func(m *machine.Machine) {
			m.P.MigrationCycles = 0
		}},
	}
	configs := 2 // 0 = OS default, 1 = tuned
	type cell struct {
		cycles float64
		rec    Record
	}
	cells, err := core.Collect(o.Runner, len(cases)*configs, func(i int) (cell, error) {
		start := startCell()
		c := cases[i/configs]
		var cfg machine.RunConfig
		which := "tuned"
		if i%configs == 0 {
			cfg = machine.DefaultConfig(16)
			cfg.Seed = 9
			which = "default"
		} else {
			cfg = machine.TunedConfig(16)
		}
		m := o.machineFor("A")
		c.tweak(m)
		m.Configure(cfg)
		w := runW1(m, s, datagen.MovingClusterDist).Result.WallCycles
		return cell{w, finishCell(start, c.name+"/"+which,
			map[string]string{"variant": c.name, "config": which}, m, w)}, nil
	})
	if err != nil {
		return AblationResult{}, err
	}
	var out AblationResult
	for _, c := range cells {
		out.Records = append(out.Records, c.rec)
	}
	for i, c := range cases {
		d, u := cells[i*configs].cycles, cells[i*configs+1].cycles
		out.Names = append(out.Names, c.name)
		out.Default = append(out.Default, d)
		out.Tuned = append(out.Tuned, u)
		out.Gain = append(out.Gain, (d-u)/d)
	}
	return out, nil
}

// Render renders the ablation table.
func (r AblationResult) Render() *report.Table {
	t := &report.Table{
		Title:  "Ablation: contribution of each modelled mechanism to the W1 default-vs-tuned gain (Machine A)",
		Header: []string{"model variant", "default", "tuned", "gain"},
	}
	for i, n := range r.Names {
		t.AddRow(n, report.Billions(r.Default[i]), report.Billions(r.Tuned[i]), report.Pct(r.Gain[i]))
	}
	return t
}

// PolicySensitivity sweeps the Preferred policy's target node, showing the
// cost asymmetry the topology induces (Machine A's twisted ladder gives
// corner nodes worse average distance than central ones). This extends the
// paper's policy set with a question it raises but does not answer: does
// it matter *which* node Preferred picks?
type PolicySensitivityResult struct {
	Nodes   []int
	Cycles  []float64
	Records []Record
}

// PolicySensitivity measures W1 under Preferred for every target node.
func PolicySensitivity(s Scale, o Options) (PolicySensitivityResult, error) {
	var out PolicySensitivityResult
	nodes := o.machineFor("A").Spec.Topo.Nodes()
	type cell struct {
		cycles float64
		rec    Record
	}
	cells, err := core.Collect(o.Runner, nodes, func(n int) (cell, error) {
		start := startCell()
		m := o.machineFor("A")
		cfg := baseConfig(16)
		cfg.Policy = vmm.Preferred
		cfg.PreferredNode = topology.NodeID(n)
		m.Configure(cfg)
		w := runW1(m, s, datagen.MovingClusterDist).Result.WallCycles
		return cell{w, finishCell(start, "node"+strconv.Itoa(n),
			map[string]string{"preferred_node": strconv.Itoa(n)}, m, w)}, nil
	})
	if err != nil {
		return PolicySensitivityResult{}, err
	}
	for n, c := range cells {
		out.Nodes = append(out.Nodes, n)
		out.Cycles = append(out.Cycles, c.cycles)
		out.Records = append(out.Records, c.rec)
	}
	return out, nil
}

// Render renders the sensitivity table.
func (r PolicySensitivityResult) Render() *report.Table {
	t := &report.Table{
		Title:  "Extension: Preferred-policy target-node sensitivity, W1, Machine A",
		Header: []string{"preferred node", "billion cycles"},
	}
	for i, n := range r.Nodes {
		t.AddRow(n, report.Billions(r.Cycles[i]))
	}
	return t
}
