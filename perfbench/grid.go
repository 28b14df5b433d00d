package main

import (
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/numaop"
	"repro/internal/query"
	"repro/internal/tune"
	"repro/internal/vmm"
)

// sizes fixes every input size of a run.
type sizes struct {
	scale         experiments.Scale // W1/W3, TPC-H and serving dataset sizes
	tune          tune.Size         // the tuning campaign's full-rung size
	serveRequests int               // open-loop stream length per serving cell
}

// calSizes are the measured benchmark's sizes: experiments.Cal datasets,
// a Small tuning campaign.
var calSizes = sizes{experiments.Cal, experiments.TuneSize(experiments.Small), experiments.Cal.ServeRequests}

// tinySizes keep every workload under a few seconds, for tests.
var tinySizes = sizes{experiments.Tiny, experiments.TuneSize(experiments.Tiny), 480}

func sizesByName(name string) (sizes, bool) {
	switch name {
	case "cal":
		return calSizes, true
	case "tiny":
		return tinySizes, true
	}
	return sizes{}, false
}

// gridState is the paper-grid workload's inputs and reference answers.
type gridState struct {
	agg         query.AggregationSpec
	join        query.JoinSpec
	wantGroups  int
	wantAgg     uint64
	wantMatches uint64
	wantJoin    uint64
}

// setupGrid generates the W1 records and the W3 join tables from the seed
// and computes their reference answers in plain Go.
func setupGrid(tr *tracer, z sizes, seed uint64, _ int) ([]cell, error) {
	return newGrid(tr, z, seed).cells(), nil
}

func newGrid(tr *tracer, z sizes, seed uint64) *gridState {
	st := &gridState{}
	s := z.scale
	var recs []datagen.Record
	tr.span("datagen.Generate", func() {
		recs = datagen.Generate(datagen.MovingClusterDist, s.AggRecords, s.AggCardinality, deriveSeed(seed, labelAgg))
	})
	tr.span("datagen.Join", func() {
		st.join.Tables = datagen.Join(s.JoinR, datagen.DefaultJoinRatio, deriveSeed(seed, labelJoin))
	})
	st.agg = query.AggregationSpec{Records: recs, Cardinality: s.AggCardinality, Holistic: true}
	tr.span("query.ReferenceAggregate", func() { st.wantGroups, st.wantAgg = query.ReferenceAggregate(st.agg) })
	tr.span("query.ReferenceJoin", func() { st.wantMatches, st.wantJoin = query.ReferenceJoin(st.join.Tables) })
	return st
}

// gridMachines are the machines of the default-vs-tuned grid: the three
// paper machines plus the 16-node mesh.
var gridMachines = []string{"A", "B", "C", "E"}

var gridSpecs = map[string]func() machine.Spec{
	"A": machine.SpecA, "B": machine.SpecB, "C": machine.SpecC, "E": machine.SpecE,
}

// cells lists one pass: W1 and W3 on every grid machine under the OS
// default and the paper's tuned configuration, then MPSM (first touch)
// and an ART index join on Machine B tuned.
func (st *gridState) cells() []cell {
	var cs []cell
	for _, letter := range gridMachines {
		for _, cfg := range []string{"default", "tuned"} {
			cs = append(cs,
				cell{letter + "/" + cfg + "/W1", func(tr *tracer, o *cellOut) {
					m := newMachine(tr, letter, cfg, 0)
					var out query.Outcome
					tr.span("query.Aggregate", func() { out = query.Aggregate(m, st.agg) })
					o.result(out.Result)
					o.h.u64(uint64(out.Groups), out.Checksum)
					o.check(out.Groups == st.wantGroups && out.Checksum == st.wantAgg)
				}},
				cell{letter + "/" + cfg + "/W3", func(tr *tracer, o *cellOut) {
					m := newMachine(tr, letter, cfg, 0)
					var out query.JoinOutcome
					tr.span("query.HashJoin", func() { out = query.HashJoin(m, st.join) })
					st.joinResult(o, out)
				}})
		}
	}
	return append(cs,
		cell{"B/tuned-firsttouch/MPSM", func(tr *tracer, o *cellOut) {
			m := newMachine(tr, "B", "tuned-firsttouch", 0)
			var out query.JoinOutcome
			tr.span("numaop.MPSMJoin", func() { out = numaop.MPSMJoin(m, st.join) })
			st.joinResult(o, out)
		}},
		cell{"B/tuned/INLJ-ART", func(tr *tracer, o *cellOut) {
			m := newMachine(tr, "B", "tuned", 0)
			var out query.JoinOutcome
			tr.span("query.IndexJoin", func() { out = query.IndexJoin(m, index.ARTKind, st.join.Tables) })
			st.joinResult(o, out)
		}})
}

func (st *gridState) joinResult(o *cellOut, out query.JoinOutcome) {
	o.result(out.Result)
	o.h.f64(out.BuildCycles, out.ProbeCycles)
	o.h.u64(out.Matches, out.Checksum)
	o.check(out.Matches == st.wantMatches && out.Checksum == st.wantJoin)
}

// newMachine builds and configures a fresh machine: "default" is the OS
// default, "tuned" the paper's Figure 10 configuration, and
// "tuned-firsttouch" the tuned one with first-touch placement (what MPSM
// needs to keep its chunks local). threads 0 means the machine's
// hardware threads. The configuration keeps its default OS-schedule seed:
// the workload seed varies the inputs, not the simulated machine.
func newMachine(tr *tracer, letter, config string, threads int) *machine.Machine {
	var m *machine.Machine
	tr.span("machine.New", func() { m = machine.New(gridSpecs[letter]()) })
	if threads == 0 {
		threads = m.Spec.HardwareThreads()
	}
	cfg := machine.TunedConfig(threads)
	switch config {
	case "default":
		cfg = machine.DefaultConfig(threads)
	case "tuned-firsttouch":
		cfg.Policy = vmm.FirstTouch
	}
	tr.span("machine.Configure", func() { m.Configure(cfg) })
	return m
}
