package experiments

import (
	"fmt"
	"sort"

	"repro/internal/index"
	"repro/internal/report"
)

// Driver runs one experiment id at a scale with typed options and
// returns its unified result: the rendered tables plus one structured
// record per grid cell. Drivers report malformed sweeps and panicking
// grid cells as errors instead of crashing the run.
type Driver func(s Scale, o Options) (*Result, error)

// Descriptor is one registry entry: the experiment's identity and
// metadata plus its driver. Obtain descriptors with Lookup or
// Descriptors; execute with Run.
type Descriptor struct {
	// Id is the registry key, e.g. "fig5a".
	Id string
	// Title is a one-line description of what the experiment measures.
	Title string
	// Artifact names the paper artifact reproduced, e.g. "Figure 5a/5b".
	Artifact string
	// DefaultScale is the scale EXPERIMENTS.md regenerates the artifact
	// at ("cal" unless noted).
	DefaultScale string
	// Options names the per-experiment numabench flags (Options.Serve and
	// Options.Adapt knobs) this driver reads, empty for experiments
	// without any; numabench -list prints them.
	Options []string

	run Driver
}

// Run executes the experiment with the given options, stamping the result
// and every record with the experiment id. A zero Options runs every
// knob at its default.
func (d Descriptor) Run(s Scale, o Options) (*Result, error) {
	r, err := d.run(s, o)
	if err != nil {
		return nil, err
	}
	r.Id = d.Id
	for i := range r.Records {
		r.Records[i].Experiment = d.Id
	}
	return r, nil
}

// registry maps experiment ids to descriptors. Built once at package
// initialization; treat as read-only.
var registry = buildRegistry()

func buildRegistry() map[string]Descriptor {
	ds := []Descriptor{
		entry("fig2", "Allocator microbenchmark: time and memory overhead", "Figure 2a/2b", Fig2,
			func(r Fig2Result) *Result { return tables(r.Records, r.RenderTime(), r.RenderOverhead()) }),
		entry("fig3", "OS scheduler variance vs Sparse affinity, consecutive W1 runs", "Figure 3", Fig3,
			func(r Fig3Result) *Result { return tables(r.Records, r.Render()) }),
		entry("table2", "Simulated machine specifications", "Table II",
			func(Scale, Options) (*report.Table, error) { return Table2(), nil },
			func(t *report.Table) *Result { return tables(nil, t) }),
		entry("table3", "Perf-counter profile, default vs Sparse placement", "Table III", Table3,
			func(r Table3Result) *Result { return tables(r.Records, r.Render()) }),
		entry("fig4", "Sparse vs Dense thread affinity across datasets", "Figure 4", Fig4,
			func(r Fig4Result) *Result { return tables(r.Records, r.Render()) }),
		entry("fig5a", "AutoNUMA effect on runtime and locality by placement policy", "Figure 5a/5b", Fig5a,
			func(r Fig5aResult) *Result { return tables(r.Records, r.Render(), r.RenderLAR()) }),
		entry("fig5b-series", "Local access ratio over time from counter snapshots", "Figure 5b (time series)", Fig5bSeries,
			func(r Fig5bSeriesResult) *Result { return tables(r.Records, r.Render()) }),
		entry("fig5c", "THP impact per memory allocator", "Figure 5c", Fig5c,
			func(r Fig5cResult) *Result { return tables(r.Records, r.Render()) }),
		entry("fig5d", "Combined AutoNUMA+THP effect across machines", "Figure 5d", Fig5d,
			func(r Fig5dResult) *Result { return tables(r.Records, r.Render()) }),
		machineSweep("fig6w1", "W1 holistic aggregation, allocator x policy grids", "Figure 6a-6c", Fig6W1),
		machineSweep("fig6w2", "W2 distributive aggregation, allocator x policy grids", "Figure 6d-6f", Fig6W2),
		machineSweep("fig6w3", "W3 hash join, allocator x policy grids", "Figure 6g-6i", Fig6W3),
		entry("fig6j", "W1 by dataset distribution and allocator", "Figure 6j", Fig6j,
			func(r Fig6jResult) *Result { return tables(r.Records, r.Render()) }),
		entry("fig7", "Index nested-loop join grids and best-config phase split", "Figure 7a-7e",
			func(s Scale, o Options) ([]Fig7Result, error) {
				var grids []Fig7Result
				for _, k := range index.Kinds() {
					r, err := Fig7(s, o, k)
					if err != nil {
						return nil, err
					}
					grids = append(grids, r)
				}
				return grids, nil
			},
			func(grids []Fig7Result) *Result {
				out := &Result{}
				for _, r := range grids {
					out.Tables = append(out.Tables, r.Render())
					out.Records = append(out.Records, r.Records...)
				}
				out.Tables = append(out.Tables, Fig7eFromGrids(grids).Render())
				return out
			}),
		entry("fig8", "TPC-H latency reduction, tuned vs default, five engines", "Figure 8", Fig8,
			func(r Fig8Result) *Result { return tables(r.Records, r.Render()) }),
		entry("fig9", "TPC-H Q5/Q18 latency by allocator, MonetDB", "Figure 9", Fig9,
			func(r Fig9Result) *Result { return tables(r.Records, r.Render()) }),
		entry("fig10", "Decision-flowchart validation against the measured optimum", "Figure 10", Fig10,
			func(r Fig10Result) *Result { return tables(r.Records, r.Render()) }),
		entry("profile", "Cycle attribution: component breakdown and node matrices, default vs pinned vs tuned",
			"Table III (extended)", Profile,
			func(r ProfileResult) *Result {
				return tables(r.Records, append([]*report.Table{r.RenderTable3Extended(), r.RenderBreakdown()},
					r.RenderMatrices()...)...)
			}),
		entry("tune", "Configuration-space tuning campaigns and flowchart regret", "Figure 10 (extended)", Tune,
			func(r TuneResult) *Result {
				return tables(r.Records, r.RenderStrategies(), r.RenderTop(), r.RenderMarginals(), r.RenderRegret())
			}),
		entry("bigtopo", "Flowchart regret on large topologies (chiplet D, grid-mesh E)", "extension", BigTopo,
			func(r BigTopoResult) *Result { return tables(r.Records, r.RenderRegret()) }),
		entry("serve", "Open-loop serving: tail latency, SLO attainment and p999 attribution", "extension", Serve,
			func(r ServeResult) *Result {
				out := tables(r.Records, r.RenderSummary(), r.RenderHistogram(), r.RenderTail(), r.RenderRegret())
				out.Spans = r.Spans
				return out
			}, "serve-requests", "serve-util"),
		entry("serve-adapt", "Orchestrator under serving: p999 delta, decision journal and span blame", "extension", ServeAdapt,
			func(r ServeAdaptResult) *Result {
				out := tables(r.Records, r.RenderP999(), r.RenderBlame(), r.RenderDecisions())
				out.Spans = r.Spans
				return out
			}, "serve-requests", "serve-util", "adapt-period", "adapt-budget"),
		entry("adapt", "Online adaptive placement vs OS default and the static tune optimum", "extension", Adapt,
			func(r AdaptResult) *Result { return tables(r.Records, r.Render(), r.RenderActions()) },
			"adapt-period", "adapt-budget"),
		entry("numaware", "NUMA-aware operators (MPSM join, chunked storage) vs the agnostic flowchart", "extension", Numaware,
			func(r NumawareResult) *Result {
				return tables(r.Records, r.RenderJoin(), r.RenderStorage(), r.RenderVerdict())
			}),
		entry("ablation", "Cost-model ablations of the headline default-vs-tuned gain", "extension", Ablate,
			func(r AblationResult) *Result { return tables(r.Records, r.Render()) }),
		entry("preferred", "Preferred-policy target-node sensitivity", "extension", PolicySensitivity,
			func(r PolicySensitivityResult) *Result { return tables(r.Records, r.Render()) }),
	}
	m := make(map[string]Descriptor, len(ds))
	for _, d := range ds {
		if _, dup := m[d.Id]; dup {
			panic("experiments: duplicate registry id " + d.Id)
		}
		m[d.Id] = d
	}
	return m
}

// entry makes the descriptor of a driver whose typed result view renders
// into tables and records; opts names the Options knobs the driver reads.
func entry[R any](id, title, artifact string, drive func(Scale, Options) (R, error),
	view func(R) *Result, opts ...string) Descriptor {
	return Descriptor{
		Id: id, Title: title, Artifact: artifact, DefaultScale: "cal", Options: opts,
		run: func(s Scale, o Options) (*Result, error) {
			r, err := drive(s, o)
			if err != nil {
				return nil, err
			}
			return view(r), nil
		},
	}
}

// tables is the Result of a driver that renders tabs and emits recs.
func tables(recs []Record, tabs ...*report.Table) *Result {
	return &Result{Tables: tabs, Records: recs}
}

// machineSweep adapts the per-machine Figure 6 drivers into a Descriptor
// that renders the grid for Machines A, B and C.
func machineSweep(id, title, artifact string, fn func(s Scale, o Options, mc string) (Fig6Result, error)) Descriptor {
	return entry(id, title, artifact,
		func(s Scale, o Options) (*Result, error) {
			out := &Result{}
			for _, mc := range []string{"A", "B", "C"} {
				r, err := fn(s, o, mc)
				if err != nil {
					return nil, err
				}
				out.Tables = append(out.Tables, r.Render())
				out.Records = append(out.Records, r.Records...)
			}
			return out, nil
		},
		func(r *Result) *Result { return r })
}

// Ids returns every experiment id in sorted order.
func Ids() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry { //rangecheck:ok keys sorted immediately below
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Descriptors returns every registry entry sorted by id.
func Descriptors() []Descriptor {
	ds := make([]Descriptor, 0, len(registry))
	for _, id := range Ids() {
		ds = append(ds, registry[id])
	}
	return ds
}

// Lookup resolves an experiment id to its descriptor.
func Lookup(id string) (Descriptor, error) {
	d, ok := registry[id]
	if !ok {
		return Descriptor{}, fmt.Errorf("unknown experiment %q", id)
	}
	return d, nil
}
