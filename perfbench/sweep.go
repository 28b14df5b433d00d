package main

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/tpch"
	"repro/internal/tune"
	"repro/internal/vmm"
)

// sweepState is the tune-sweep workload's inputs: one successive-halving
// campaign spec and one TPC-H database with its reference answers.
type sweepState struct {
	campaign tune.Spec
	db       *tpch.DB
	warmRuns int
	// want holds the committed TPC-H answers for this database, or nil;
	// without them every query must agree with the first profile's answer.
	want []int64
	ref  map[int]int64 // first answer per query, when want is nil
}

// setupSweep builds the campaign's rung datasets (the tuner's W1
// workload generates them with its own fixed seed, so set-up only warms
// its memo) and generates the TPC-H database from the seed.
func setupSweep(tr *tracer, z sizes, seed uint64, _ int) ([]cell, error) {
	st := &sweepState{
		campaign: tune.Spec{
			Strategy: tune.StrategySHA, Space: tune.DefaultSpace(),
			Workload: "W1", Machine: "A", Seed: deriveSeed(seed, labelTune), Size: z.tune,
		},
		warmRuns: z.scale.WarmRuns,
		ref:      map[int]int64{},
	}
	spec, err := st.campaign.Normalize()
	if err != nil {
		return nil, err
	}
	datagen.ResetCache()
	for r := 0; r < spec.Rungs; r++ {
		rz := z.tune.Scaled(math.Pow(float64(spec.Eta), float64(r-spec.Rungs+1)))
		tr.span("datagen.CachedGenerate", func() {
			datagen.CachedGenerate(datagen.MovingClusterDist, rz.AggRecords, rz.AggCardinality, 11)
		})
	}
	sf, dbSeed := z.scale.TPCHSF, deriveSeed(seed, labelTPCH)
	tr.span("tpch.Generate", func() { st.db = tpch.Generate(sf, dbSeed) })
	st.want = committedTPCH[tpchKey(sf, dbSeed)]
	return st.cells(), nil
}

// cells lists one pass: the campaign, then the TPC-H harness over every
// engine profile with single-region storage, then Quickstep chunked.
func (st *sweepState) cells() []cell {
	cs := []cell{{"tune/sha/W1/A", st.tune}}
	for _, p := range tpch.Profiles() {
		cs = append(cs, st.tpchCell(p, false))
	}
	return append(cs, st.tpchCell(tpch.ProfileByName("Quickstep"), true))
}

// tune runs the campaign on one worker. Each wave's records must survive
// the strict JSONL round trip; the wave's host time per trial is sampled
// as tune.trial_ms.
func (st *sweepState) tune(tr *tracer, o *cellOut) {
	var waveStart float64
	if tr != nil {
		waveStart = tr.now()
	}
	trials := 0
	sink := func(recs []tune.Record) error {
		if ms := tr.since("tune.wave", waveStart); len(recs) > 0 {
			tr.sample("tune.trial_ms", ms/float64(len(recs)))
		}
		var buf, again bytes.Buffer
		var back []tune.Record
		var err error
		tr.span("tune.WriteJSONL", func() { err = tune.WriteJSONL(&buf, recs) })
		if err == nil {
			tr.span("tune.ReadJSONL", func() {
				if back, err = tune.ReadJSONL(bytes.NewReader(buf.Bytes())); err == nil {
					err = tune.WriteJSONL(&again, back)
				}
			})
		}
		ok := err == nil && bytes.Equal(buf.Bytes(), again.Bytes())
		for _, r := range recs {
			o.check(ok)
			o.simulated(r.WallCycles, r.Counters)
		}
		o.h.bytes(buf.Bytes())
		trials += len(recs)
		if tr != nil {
			waveStart = tr.now()
		}
		return nil
	}
	var res *tune.Result
	var err error
	tr.span("tune.Run", func() { res, err = tune.Run(st.campaign, core.Serial, nil, sink, nil) })
	// The campaign's own result must agree with what the sink saw.
	o.check(err == nil && res != nil && len(res.Records) == trials && res.Best != nil)
	o.counts.add("tune.trials", float64(trials))
	if res != nil && res.Best != nil {
		o.h.str(res.Best.Key)
	}
}

// tpchCell measures all 22 queries on one engine profile, loaded into a
// fresh Machine A under the tuned configuration (first touch for chunked
// storage, which places each chunk on its loader's node).
func (st *sweepState) tpchCell(p tpch.Profile, chunked bool) cell {
	name := "tpch/" + p.Name
	cfg := machine.TunedConfig(machine.SpecA().HardwareThreads())
	if chunked {
		name += "/chunked"
		cfg.Policy = vmm.FirstTouch
	}
	return cell{name, func(tr *tracer, o *cellOut) {
		var h *tpch.Harness
		tr.span("tpch.NewHarnessStorage", func() {
			h = tpch.NewHarnessStorage(machine.SpecA(), p, cfg, st.db, st.warmRuns, tpch.StorageOptions{Chunked: chunked})
		})
		for q := 1; q <= tpch.NumQueries; q++ {
			var wall float64
			var res tpch.QueryResult
			err := guard(func() { tr.span("tpch.Measure", func() { wall, res = h.Measure(q) }) })
			o.simulated(wall, h.Engine.M.Counters())
			o.h.u64(uint64(res.Check))
			o.check(err == nil && st.agrees(q, res.Check))
		}
		o.allocStats(h.Engine.M.Alloc.Stats())
	}}
}

// agrees reports whether query q's answer matches the committed one, or,
// without committed answers, the first answer this process saw for q.
func (st *sweepState) agrees(q int, check int64) bool {
	if st.want != nil {
		return check == st.want[q-1]
	}
	if first, ok := st.ref[q]; ok {
		return check == first
	}
	st.ref[q] = check
	return true
}

// guard runs fn and turns a panic into an error, so one failing call
// counts as a failed operation instead of ending the run.
func guard(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	fn()
	return nil
}

func tpchKey(sf float64, seed uint64) string { return fmt.Sprintf("sf%g/seed%d", sf, seed) }
