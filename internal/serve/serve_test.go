package serve

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// tinySpec keeps unit-test runs fast: small datasets, short stream.
func tinySpec() Spec {
	return Spec{
		Requests: 160,
		Warmup:   16,
		Workers:  4,
		MeanGap:  800,
		Seed:     3,
		DataRows: 2000,
		DataCard: 64,
		JoinRows: 400,
		TPCHSF:   0.001,
	}.Normalize()
}

// TestArrivalsPositionIndependent pins the PR 1 pitfall to the serving
// stream: request i's content must depend only on (seed, i), never on how
// many requests precede or follow it, for both arrival processes. A
// shorter stream is therefore a strict prefix of a longer one.
func TestArrivalsPositionIndependent(t *testing.T) {
	for _, arrival := range []string{ArrivalPoisson, ArrivalBursty} {
		sp := tinySpec()
		sp.Arrival = arrival
		long := Arrivals(sp)
		short := sp
		short.Requests = 40
		got := Arrivals(short)
		if !reflect.DeepEqual(got, long[:40]) {
			t.Errorf("%s: 40-request stream is not a prefix of the 160-request stream", arrival)
		}
		for i := 1; i < len(long); i++ {
			if long[i].Arrival < long[i-1].Arrival {
				t.Fatalf("%s: arrivals not monotonic at %d", arrival, i)
			}
		}
		for i := range long {
			if long[i].Session >= uint64(sp.Sessions) {
				t.Fatalf("%s: session %d out of range at %d", arrival, long[i].Session, i)
			}
		}
	}
}

// TestArrivalsBurstyCompresses checks the bursty process actually changes
// the gap structure relative to Poisson under the same seed.
func TestArrivalsBurstyCompresses(t *testing.T) {
	sp := tinySpec()
	sp.Requests = 640
	pois := Arrivals(sp)
	sp.Arrival = ArrivalBursty
	bur := Arrivals(sp)
	same := 0
	for i := 1; i < len(pois); i++ {
		pg := pois[i].Arrival - pois[i-1].Arrival
		bg := bur[i].Arrival - bur[i-1].Arrival
		if pg == bg {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d gaps identical between poisson and bursty; burst modulation missing", same)
	}
}

// TestQueueSimFCFS hand-checks the G/G/c overlay: two servers, a burst of
// three simultaneous arrivals — the third must queue behind the faster
// server.
func TestQueueSimFCFS(t *testing.T) {
	reqs := []Request{{Arrival: 0}, {Arrival: 0}, {Arrival: 0}, {Arrival: 50}}
	svc := []perReq{{service: 10}, {service: 4}, {service: 8}, {service: 5}}
	lat, wait, makespan := queueSim(reqs, svc, 2)
	// r0 -> server0 [0,10); r1 -> server1 [0,4); r2 queues for server1,
	// runs [4,12); r3 arrives at 50, both idle, server0 runs [50,55).
	wantLat := []float64{10, 4, 12, 5}
	wantWait := []float64{0, 0, 4, 0}
	if !reflect.DeepEqual(lat, wantLat) {
		t.Errorf("latency %v, want %v", lat, wantLat)
	}
	if !reflect.DeepEqual(wait, wantWait) {
		t.Errorf("wait %v, want %v", wait, wantWait)
	}
	if makespan != 55 {
		t.Errorf("makespan %v, want 55", makespan)
	}
}

// TestRunWarmupOnly drives the all-warmup edge case: zero measured
// requests must yield defined (zero, finite) metrics and an empty tail,
// never NaN — these numbers land in JSON artifacts.
func TestRunWarmupOnly(t *testing.T) {
	sp := tinySpec()
	sp.Requests = 24
	sp.Warmup = 24
	sp.SLOs = []float64{1000, 10000}
	m := machine.New(machine.SpecA())
	m.Configure(machine.DefaultConfig(sp.Workers))
	out := Run(m, sp)
	mt := out.Metrics
	if mt.Requests != 0 {
		t.Fatalf("measured %d requests, want 0", mt.Requests)
	}
	for name, v := range map[string]float64{
		"p50": mt.P50, "p99": mt.P99, "p999": mt.P999,
		"mean_latency": mt.MeanLatency, "throughput": mt.Throughput,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want finite", name, v)
		}
	}
	if len(mt.SLOs) != 2 || mt.SLOs[0].Attained != 0 || mt.SLOs[1].Attained != 0 {
		t.Errorf("SLO rows %+v, want two zero-attainment rows", mt.SLOs)
	}
	if len(mt.Hist) != 0 {
		t.Errorf("histogram has %d buckets on empty measured set", len(mt.Hist))
	}
	if out.Tail.Count != 0 || len(out.Tail.Buckets) != 0 {
		t.Errorf("tail non-empty on empty measured set: %+v", out.Tail)
	}
}

// TestRunDeterministic runs the full serving pipeline twice on fresh
// machines and requires identical outcomes — the property the experiment
// driver's byte-identical artifacts rest on.
func TestRunDeterministic(t *testing.T) {
	sp := tinySpec()
	sp.SLOs = []float64{2000, 20000, 200000}
	run := func() *Outcome {
		m := machine.New(machine.SpecA())
		m.Configure(machine.DefaultConfig(sp.Workers))
		m.Observe(machine.ObserveOptions{Profile: true})
		return Run(m, sp)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("metrics differ across identical runs:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.Tail, b.Tail) {
		t.Errorf("tail attribution differs across identical runs")
	}
	if a.Metrics.Requests != sp.Requests-sp.Warmup {
		t.Fatalf("measured %d, want %d", a.Metrics.Requests, sp.Requests-sp.Warmup)
	}
	if a.Metrics.P999 < a.Metrics.P99 || a.Metrics.P99 < a.Metrics.P50 {
		t.Errorf("percentiles not ordered: p50=%v p99=%v p999=%v",
			a.Metrics.P50, a.Metrics.P99, a.Metrics.P999)
	}
	if a.Metrics.MeanService <= 0 {
		t.Errorf("mean service %v, want > 0", a.Metrics.MeanService)
	}
	if len(a.Tail.Buckets) == 0 {
		t.Errorf("profiled run attributed no buckets")
	}
	sumHist := 0
	for _, hb := range a.Metrics.Hist {
		sumHist += hb.Count
	}
	if sumHist != a.Metrics.Requests {
		t.Errorf("histogram counts sum to %d, want %d", sumHist, a.Metrics.Requests)
	}
}

// TestCalibrationAndSLOs checks the calibration helpers: every preset a
// campaign can select calibrates (D and E included, which WS campaigns
// reach with -machine D/E), the memoized mean is stable, the derived gap
// offers the requested utilization, and the SLO ladder scales off the mean.
func TestCalibrationAndSLOs(t *testing.T) {
	sp := tinySpec()
	for _, spec := range machine.AllSpecs() {
		mean := CalibratedMeanService(spec.Name, sp)
		if mean <= 0 || math.IsNaN(mean) {
			t.Fatalf("%s: calibrated mean %v, want positive", spec.Name, mean)
		}
		if again := CalibratedMeanService(spec.Name, sp); again != mean {
			t.Errorf("%s: memoized calibration drifted: %v then %v", spec.Name, mean, again)
		}
	}
	mean := CalibratedMeanService("Machine A", sp)
	gap := GapFor(mean, 4, 0.5)
	if want := mean / 2; math.Abs(gap-want) > 1e-9 {
		t.Errorf("gap %v, want %v", gap, want)
	}
	slos := DefaultSLOs(mean)
	if len(slos) != len(SLOMultiples()) {
		t.Fatalf("%d SLOs vs %d labels", len(slos), len(SLOMultiples()))
	}
	for i := 1; i < len(slos); i++ {
		if slos[i] <= slos[i-1] {
			t.Errorf("SLO ladder not ascending: %v", slos)
		}
	}
}

// TestCalibrationConcurrentCallersShareOneRun: concurrent calibrations of
// one key run the closed-loop measurement once and all read its value, as
// parallel campaign trials on one machine do.
func TestCalibrationConcurrentCallersShareOneRun(t *testing.T) {
	calMemo.Reset()
	sp := tinySpec()
	got := make([]float64, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = CalibratedMeanService("Machine A", sp)
		}(i)
	}
	wg.Wait()
	if _, misses := calMemo.Stats(); misses != 1 {
		t.Errorf("%d calibrations for one key, want 1", misses)
	}
	for i := range got {
		if got[i] != got[0] || got[i] <= 0 {
			t.Errorf("caller %d read %v, caller 0 read %v", i, got[i], got[0])
		}
	}
}

// TestMatchEventsAgainstLinearScan checks the binary-search matcher against
// its definition, scanned linearly: a thread-stamped event matches the
// request on its thread whose [startCy, endCy) holds its cycle, and a
// daemon event (Thread -1) matches, on each thread, the request whose
// [gStart, gEnd) holds it. Windows are sequential per thread, with gaps
// and zero-length windows; events carry their index in Addr.
func TestMatchEventsAgainstLinearScan(t *testing.T) {
	const threads, perThread = 4, 40
	r := xrand.New(5)
	svc := make([]perReq, threads*perThread)
	for th := 0; th < threads; th++ {
		var cy, g float64
		for k := 0; k < perThread; k++ {
			cy += float64(r.Uint64n(3))
			g += float64(r.Uint64n(3))
			n := float64(r.Uint64n(4))
			svc[th+k*threads] = perReq{thread: th, startCy: cy, endCy: cy + n, gStart: g, gEnd: g + n}
			cy, g = cy+n, g+n
		}
	}
	events := make([]trace.Event, 3000)
	for n := range events {
		events[n] = trace.Event{
			Thread: int32(r.Uint64n(threads+2)) - 1, // -1 (daemon) through one thread with no windows
			Cycle:  float64(r.Uint64n(5 * perThread)),
			Addr:   uint64(n),
		}
	}

	type match struct{ req, ev int }
	var got, want []match
	matchEvents(svc, events, func(i int, ev trace.Event) { got = append(got, match{i, int(ev.Addr)}) })
	for n, ev := range events {
		for th := 0; th < threads; th++ {
			if ev.Thread >= 0 && int(ev.Thread) != th {
				continue
			}
			for i := th; i < len(svc); i += threads {
				lo, hi := svc[i].startCy, svc[i].endCy
				if ev.Thread < 0 {
					lo, hi = svc[i].gStart, svc[i].gEnd
				}
				if lo <= ev.Cycle && ev.Cycle < hi {
					want = append(want, match{i, n})
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no event fell inside a window; the test data exercises nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("matchEvents made %d matches, linear scan %d (first: %v vs %v)",
			len(got), len(want), got[:min(len(got), 5)], want[:min(len(want), 5)])
	}
}
