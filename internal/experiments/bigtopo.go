package experiments

import (
	"repro/internal/report"
	"repro/internal/tune"
)

// bigtopoCells are the machine x workload cells of the large-topology
// flowchart-regret study: the chiplet box D and the 16-node grid mesh E,
// each on the holistic aggregation (W1) and the hash join (W3). Both
// machines sit outside the paper's evaluation set, so the study asks
// whether the Figure 10 flowchart's advice still lands near the tuned
// optimum when the topology stops looking like anything it was built on.
var bigtopoCells = [][2]string{
	{"D", "W1"}, {"D", "W3"}, {"E", "W1"}, {"E", "W3"},
}

// BigTopoResult is the large-topology regret study: one successive-halving
// campaign per cell, each scored against the flowchart's advice.
type BigTopoResult struct {
	RegretRows []report.RegretRow // D/E x W1/W3, machine-major order
	Records    []Record
}

// BigTopo runs the flowchart-regret study on the large-topology machine
// presets. The campaigns dispatch through the shared trial runner exactly
// like the tune experiment, so artifacts stay byte-identical across runs.
func BigTopo(s Scale, o Options) (BigTopoResult, error) {
	size := TuneSize(s)
	var out BigTopoResult
	for _, cell := range bigtopoCells {
		res, err := tune.Run(tune.Spec{
			Strategy: tune.StrategySHA, Space: tune.DefaultSpace(),
			Workload: cell[1], Machine: cell[0], Size: size,
		}, o.Runner, nil, nil, nil)
		if err != nil {
			return out, err
		}
		recs, err := tuneRecords(res)
		if err != nil {
			return out, err
		}
		out.Records = append(out.Records, recs...)
		row, err := tune.RegretWithFallback(res)
		if err != nil {
			return out, err
		}
		out.RegretRows = append(out.RegretRows, row)
	}
	return out, nil
}

// RenderRegret is the flowchart-regret table over the big topologies.
func (r BigTopoResult) RenderRegret() *report.Table {
	return report.FlowchartRegretTable(
		"Flowchart regret on large topologies: core.Advise vs campaign optimum", r.RegretRows)
}
