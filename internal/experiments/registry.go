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
	// Options names the Options knobs this driver reads (empty for
	// experiments without any); numabench -list prints them.
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
		{
			Id: "fig2", Title: "Allocator microbenchmark: time and memory overhead",
			Artifact: "Figure 2a/2b", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Fig2(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.RenderTime(), r.RenderOverhead()}, Records: r.Records}, nil
			},
		},
		{
			Id: "fig3", Title: "OS scheduler variance vs Sparse affinity, consecutive W1 runs",
			Artifact: "Figure 3", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Fig3(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
		{
			Id: "table2", Title: "Simulated machine specifications",
			Artifact: "Table II", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				return &Result{Tables: []*report.Table{Table2()}}, nil
			},
		},
		{
			Id: "table3", Title: "Perf-counter profile, default vs Sparse placement",
			Artifact: "Table III", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Table3(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
		{
			Id: "fig4", Title: "Sparse vs Dense thread affinity across datasets",
			Artifact: "Figure 4", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Fig4(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
		{
			Id: "fig5a", Title: "AutoNUMA effect on runtime and locality by placement policy",
			Artifact: "Figure 5a/5b", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Fig5a(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render(), r.RenderLAR()}, Records: r.Records}, nil
			},
		},
		{
			Id: "fig5b-series", Title: "Local access ratio over time from counter snapshots",
			Artifact: "Figure 5b (time series)", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Fig5bSeries(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
		{
			Id: "fig5c", Title: "THP impact per memory allocator",
			Artifact: "Figure 5c", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Fig5c(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
		{
			Id: "fig5d", Title: "Combined AutoNUMA+THP effect across machines",
			Artifact: "Figure 5d", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Fig5d(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
		machineSweep("fig6w1", "W1 holistic aggregation, allocator x policy grids", "Figure 6a-6c", Fig6W1),
		machineSweep("fig6w2", "W2 distributive aggregation, allocator x policy grids", "Figure 6d-6f", Fig6W2),
		machineSweep("fig6w3", "W3 hash join, allocator x policy grids", "Figure 6g-6i", Fig6W3),
		{
			Id: "fig6j", Title: "W1 by dataset distribution and allocator",
			Artifact: "Figure 6j", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Fig6j(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
		{
			Id: "fig7", Title: "Index nested-loop join grids and best-config phase split",
			Artifact: "Figure 7a-7e", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				out := &Result{}
				var grids []Fig7Result
				for _, k := range index.Kinds() {
					r, err := Fig7(s, k)
					if err != nil {
						return nil, err
					}
					out.Tables = append(out.Tables, r.Render())
					out.Records = append(out.Records, r.Records...)
					grids = append(grids, r)
				}
				out.Tables = append(out.Tables, Fig7eFromGrids(grids).Render())
				return out, nil
			},
		},
		{
			Id: "fig8", Title: "TPC-H latency reduction, tuned vs default, five engines",
			Artifact: "Figure 8", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Fig8(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
		{
			Id: "fig9", Title: "TPC-H Q5/Q18 latency by allocator, MonetDB",
			Artifact: "Figure 9", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Fig9(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
		{
			Id: "fig10", Title: "Decision-flowchart validation against the measured optimum",
			Artifact: "Figure 10", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Fig10(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
		{
			Id: "profile", Title: "Cycle attribution: component breakdown and node matrices, default vs pinned vs tuned",
			Artifact: "Table III (extended)", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Profile(s)
				if err != nil {
					return nil, err
				}
				tables := []*report.Table{r.RenderTable3Extended(), r.RenderBreakdown()}
				tables = append(tables, r.RenderMatrices()...)
				return &Result{Tables: tables, Records: r.Records}, nil
			},
		},
		{
			Id: "tune", Title: "Configuration-space tuning campaigns and flowchart regret",
			Artifact: "Figure 10 (extended)", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Tune(s)
				if err != nil {
					return nil, err
				}
				tables := []*report.Table{r.RenderStrategies(), r.RenderTop(),
					r.RenderMarginals(), r.RenderRegret()}
				return &Result{Tables: tables, Records: r.Records}, nil
			},
		},
		{
			Id: "bigtopo", Title: "Flowchart regret on large topologies (chiplet D, grid-mesh E)",
			Artifact: "extension", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := BigTopo(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.RenderRegret()}, Records: r.Records}, nil
			},
		},
		{
			Id: "serve", Title: "Open-loop serving: tail latency, SLO attainment and p999 attribution",
			Artifact: "extension", DefaultScale: "cal",
			Options: []string{"serve-requests", "serve-util"},
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Serve(s, o.Serve)
				if err != nil {
					return nil, err
				}
				tables := []*report.Table{r.RenderSummary(), r.RenderHistogram(),
					r.RenderTail(), r.RenderRegret()}
				return &Result{Tables: tables, Records: r.Records, Spans: r.Spans}, nil
			},
		},
		{
			Id: "serve-adapt", Title: "Orchestrator under serving: p999 delta, decision journal and span blame",
			Artifact: "extension", DefaultScale: "cal",
			Options: []string{"serve-requests", "serve-util", "adapt-period", "adapt-budget"},
			run: func(s Scale, o Options) (*Result, error) {
				r, err := ServeAdapt(s, o)
				if err != nil {
					return nil, err
				}
				return &Result{
					Tables:  []*report.Table{r.RenderP999(), r.RenderBlame(), r.RenderDecisions()},
					Records: r.Records,
					Spans:   r.Spans,
				}, nil
			},
		},
		{
			Id: "adapt", Title: "Online adaptive placement vs OS default and the static tune optimum",
			Artifact: "extension", DefaultScale: "cal",
			Options: []string{"adapt-period", "adapt-budget"},
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Adapt(s, o.Adapt)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render(), r.RenderActions()}, Records: r.Records}, nil
			},
		},
		{
			Id: "numaware", Title: "NUMA-aware operators (MPSM join, chunked storage) vs the agnostic flowchart",
			Artifact: "extension", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Numaware(s)
				if err != nil {
					return nil, err
				}
				return &Result{
					Tables:  []*report.Table{r.RenderJoin(), r.RenderStorage(), r.RenderVerdict()},
					Records: r.Records,
				}, nil
			},
		},
		{
			Id: "ablation", Title: "Cost-model ablations of the headline default-vs-tuned gain",
			Artifact: "extension", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := Ablate(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
		{
			Id: "preferred", Title: "Preferred-policy target-node sensitivity",
			Artifact: "extension", DefaultScale: "cal",
			run: func(s Scale, o Options) (*Result, error) {
				r, err := PolicySensitivity(s)
				if err != nil {
					return nil, err
				}
				return &Result{Tables: []*report.Table{r.Render()}, Records: r.Records}, nil
			},
		},
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

// machineSweep adapts the per-machine Figure 6 drivers into a Descriptor
// that renders the grid for Machines A, B and C.
func machineSweep(id, title, artifact string, fn func(s Scale, mc string) (Fig6Result, error)) Descriptor {
	return Descriptor{
		Id: id, Title: title, Artifact: artifact, DefaultScale: "cal",
		run: func(s Scale, o Options) (*Result, error) {
			out := &Result{}
			for _, mc := range []string{"A", "B", "C"} {
				r, err := fn(s, mc)
				if err != nil {
					return nil, err
				}
				out.Tables = append(out.Tables, r.Render())
				out.Records = append(out.Records, r.Records...)
			}
			return out, nil
		},
	}
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
