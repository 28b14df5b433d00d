package main

import (
	"bytes"

	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/serve"
	"repro/internal/span"
	"repro/internal/tpch"
	"repro/internal/trace"
)

// serveWorkers is the serving thread count of every cell (the c of the
// G/G/c queue), as in the serve experiment.
const serveWorkers = 16

// snapEvery is the counter-snapshot cadence in simulated cycles, as in
// the experiment drivers' traced cells.
const snapEvery = 1e5

// serveState is the serve-observed workload's calibrated serving spec.
// runMS holds the traced pass's serve.Run milliseconds per cell, for the
// orchestrator's with/without ratio.
type serveState struct {
	spec  serve.Spec
	runMS map[string]float64
}

// setupServe generates the serving datasets and calibrates the arrival
// rate and SLO ladder on a default-configured Machine A. The serving
// datasets use serve's own fixed seeds, so set-up drops the dataset memos
// and regenerates them; calibration is memoized per seed, so every set-up
// repetition calibrates against its own derived stream.
func setupServe(tr *tracer, z sizes, seed uint64, rep int) ([]cell, error) {
	s := z.scale
	datagen.ResetCache()
	tpch.ResetGenCache()
	tr.span("datagen.CachedGenerate", func() {
		datagen.CachedGenerate(datagen.MovingClusterDist, s.AggRecords, s.AggCardinality, 11)
	})
	tr.span("datagen.CachedJoin", func() { datagen.CachedJoin(s.JoinR, datagen.DefaultJoinRatio, 17) })
	tr.span("tpch.GenerateCached", func() { tpch.GenerateCached(s.TPCHSF, 7) })

	sp := serve.Spec{
		Requests: z.serveRequests,
		Warmup:   z.serveRequests / 16,
		Workers:  serveWorkers,
		Seed:     deriveSeed(seed, labelServe),
		DataRows: s.AggRecords,
		DataCard: s.AggCardinality,
		JoinRows: s.JoinR,
		TPCHSF:   s.TPCHSF,
	}.Normalize()
	cal := sp
	cal.Seed = deriveSeed(seed, labelCalibrate+uint64(rep))
	var mean float64
	tr.span("serve.CalibratedMeanService", func() { mean = serve.CalibratedMeanService(machine.SpecA().Name, cal) })
	sp.MeanGap = serve.GapFor(mean, sp.Workers, 0)
	sp.SLOs = serve.DefaultSLOs(mean)
	st := &serveState{spec: sp, runMS: map[string]float64{}}
	return st.cells(), nil
}

// cells lists one pass: the OS default and tuned configurations under
// Poisson and bursty arrivals, then default/bursty again with the
// placement orchestrator attached.
func (st *serveState) cells() []cell {
	var cs []cell
	for _, cfg := range []string{"default", "tuned"} {
		for _, arrival := range []string{serve.ArrivalPoisson, serve.ArrivalBursty} {
			cs = append(cs, cell{cfg + "/" + arrival, func(tr *tracer, o *cellOut) {
				st.serve(tr, o, cfg, arrival, false)
			}})
		}
	}
	return append(cs, cell{"default/bursty/orchestrator", func(tr *tracer, o *cellOut) {
		st.serve(tr, o, "default", serve.ArrivalBursty, true)
	}})
}

// serve runs one serving cell with profiling, tracing, snapshots and
// spans on, then attributes its tail and writes its spans as JSONL; the
// first pass also round-trips them through the strict reader.
func (st *serveState) serve(tr *tracer, o *cellOut, cfg, arrival string, withOrch bool) {
	m := newMachine(tr, "A", cfg, serveWorkers)
	tr.span("machine.Observe", func() {
		m.Observe(machine.ObserveOptions{Trace: true, Profile: true, Spans: true, SnapEvery: snapEvery})
	})
	var orch *orchestrator.Orchestrator
	if withOrch {
		orch = orchestrator.New(orchestrator.DefaultConfig())
		tr.span("orchestrator.Attach", func() { orch.Attach(m) })
	}
	sp := st.spec
	sp.Arrival = arrival
	var out *serve.Outcome
	runMS := tr.span("serve.Run", func() { out = serve.Run(m, sp) })
	if runMS > 0 {
		tr.sample("serve.requests_per_s", float64(sp.Requests)/(runMS/1e3))
		if base := st.runMS[cfg+"/"+arrival]; withOrch && base > 0 {
			tr.sample("orchestrator.cell_ratio", runMS/base)
		}
		st.runMS[o.name] = runMS
	}
	if orch != nil {
		tr.span("orchestrator.Detach", orch.Detach)
		s := orch.Stats()
		o.h.u64(uint64(s.Ticks), uint64(s.ThreadMoves), uint64(s.PageMoves), uint64(s.Reweights))
		o.counts.add("orchestrator.ticks", float64(s.Ticks))
		o.counts.add("orchestrator.thread_moves", float64(s.ThreadMoves))
		o.counts.add("orchestrator.page_moves", float64(s.PageMoves))
	}
	var blame []span.BlameRow
	tr.span("span.Blame", func() { blame = out.Blame() })

	var buf bytes.Buffer
	var err error
	tr.span("span.WriteJSONL", func() { err = span.WriteJSONL(&buf, out.Spans) })
	nspans := len(out.Spans)
	o.verify = func() bool {
		back, err := span.ReadJSONL(bytes.NewReader(buf.Bytes()))
		var again bytes.Buffer
		return err == nil && len(back) == nspans &&
			span.WriteJSONL(&again, back) == nil && bytes.Equal(buf.Bytes(), again.Bytes())
	}

	o.result(out.Result)
	mt := out.Metrics
	o.h.u64(uint64(mt.Requests), uint64(out.Tail.Count))
	o.h.f64(out.Setup, mt.MeanService, mt.MeanWait, mt.MeanLatency, mt.P50, mt.P90, mt.P99, mt.P999, mt.Makespan, mt.Throughput)
	for _, a := range mt.SLOs {
		o.h.f64(a.Target, a.Attained)
	}
	for _, b := range mt.Hist {
		o.h.f64(b.Lo, b.Hi)
		o.h.u64(uint64(b.Count))
	}
	for _, b := range blame {
		o.h.str(b.Mechanism + "/" + b.Initiator)
		o.h.f64(b.AllCycles, b.TailCycles, b.AllShare, b.TailShare)
	}
	o.h.bytes(buf.Bytes())
	events := 0
	if rec, ok := m.Trace().(*trace.Recorder); ok {
		events = rec.Len()
	}
	o.h.u64(uint64(events))
	o.counts.add("span.count", float64(len(out.Spans)))
	o.counts.add("span.jsonl_mb", float64(buf.Len())/(1<<20))
	o.counts.add("trace.events", float64(events))
	o.check(mt.Requests == sp.Requests-sp.Warmup && err == nil)
}
