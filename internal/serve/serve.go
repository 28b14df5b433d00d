// Package serve builds the open-loop query-serving scenario: a
// deterministic arrival process (Poisson or bursty, drawn from xrand)
// dispatches a mixed stream of point lookups, index-join probes,
// aggregation windows and TPC-H scan fragments onto a simulated machine,
// and the package reports per-request latency percentiles, SLO attainment
// and a tail-cycle attribution.
//
// Unlike the closed-loop figure drivers, requests arrive on their own
// clock: the service phase measures each request's simulated service time
// on the machine (worker threads drain the stream round-robin), and a
// G/G/c FCFS queueing overlay combines the measured service times with the
// arrival process into per-request latency = queueing wait + service.
// Everything — arrivals, session ids, per-request parameters, service
// cycles, queueing — derives from the spec's seed, so all outputs are
// byte-identical across runs and across host parallelism.
package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/query"
	"repro/internal/span"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Arrival process names.
const (
	// ArrivalPoisson draws i.i.d. exponential inter-arrival gaps.
	ArrivalPoisson = "poisson"
	// ArrivalBursty modulates the Poisson gaps in blocks of requests: a
	// random fifth of the blocks arrive Burst times faster (compressed
	// gaps), the rest slightly slower, preserving open-loop pressure while
	// clustering arrivals the way production traffic does.
	ArrivalBursty = "bursty"
)

// Kind classifies one request of the serving mix.
type Kind int

// The serving mix's request kinds.
const (
	// PointLookup probes the ART index a handful of times (B-tree-backed
	// key/value reads).
	PointLookup Kind = iota
	// IndexJoin allocates a result buffer and joins a short probe-side
	// window against the index.
	IndexJoin
	// AggregateScan streams an aggregation window over the record array —
	// the bandwidth-bound tail-maker of the mix.
	AggregateScan
	// TPCHScan runs a TPC-H lineitem scan fragment through the columnar
	// engine's per-tuple cost model.
	TPCHScan

	numKinds
)

// String returns the kind's stable name, used in tables and labels.
func (k Kind) String() string {
	switch k {
	case PointLookup:
		return "point"
	case IndexJoin:
		return "join"
	case AggregateScan:
		return "agg"
	case TPCHScan:
		return "tpch"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Mix is the request-kind mix as integer weights.
type Mix struct {
	Point int
	Join  int
	Agg   int
	TPCH  int
}

// DefaultMix is a lookup-heavy OLTP-ish mix with an analytic tail.
func DefaultMix() Mix { return Mix{Point: 60, Join: 25, Agg: 12, TPCH: 3} }

func (x Mix) total() int { return x.Point + x.Join + x.Agg + x.TPCH }

// pick maps a uniform draw in [0, total) onto a kind.
func (x Mix) pick(u uint64) Kind {
	if u < uint64(x.Point) {
		return PointLookup
	}
	u -= uint64(x.Point)
	if u < uint64(x.Join) {
		return IndexJoin
	}
	u -= uint64(x.Join)
	if u < uint64(x.Agg) {
		return AggregateScan
	}
	return TPCHScan
}

// Spec describes one serving run. Zero values get defaults from Normalize.
type Spec struct {
	// Requests is the open-loop stream length; Warmup leading requests are
	// served but excluded from every metric (cold caches, cold allocator).
	Requests int
	Warmup   int
	// Workers is the serving thread count (the c of the G/G/c queue).
	Workers int
	// Sessions is the simulated session-id space; each request belongs to
	// one session and touches that session's working set.
	Sessions int
	// Arrival selects the arrival process (ArrivalPoisson, ArrivalBursty);
	// MeanGap is the mean inter-arrival gap in simulated cycles, and Burst
	// the bursty process's gap-compression factor.
	Arrival string
	MeanGap float64
	Burst   float64
	// Mix weights the request kinds.
	Mix Mix
	// Seed derives every random stream of the run.
	Seed uint64
	// SLOs are latency targets in simulated cycles, ascending; the metrics
	// report the fraction of measured requests at or under each.
	SLOs []float64

	// Dataset dimensions: the aggregation table (DataRows x DataCard
	// groups), the join build side (JoinRows; probe side is the usual
	// 16x), and the TPC-H scale factor.
	DataRows int
	DataCard int
	JoinRows int
	TPCHSF   float64
}

// Normalize fills defaults; it is idempotent and Run applies it, so a
// zero-valued field never reaches the kernels.
func (sp Spec) Normalize() Spec {
	if sp.Requests <= 0 {
		sp.Requests = 256
	}
	if sp.Warmup < 0 {
		sp.Warmup = 0
	}
	if sp.Workers <= 0 {
		sp.Workers = 8
	}
	if sp.Sessions <= 0 {
		sp.Sessions = 2_000_000
	}
	if sp.Arrival != ArrivalBursty {
		sp.Arrival = ArrivalPoisson
	}
	if sp.MeanGap <= 0 {
		sp.MeanGap = 1000
	}
	if sp.Burst <= 1 {
		sp.Burst = 4
	}
	if sp.Mix.total() <= 0 {
		sp.Mix = DefaultMix()
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.DataRows <= 0 {
		sp.DataRows = 8192
	}
	if sp.DataCard <= 0 {
		sp.DataCard = 256
	}
	if sp.JoinRows <= 0 {
		sp.JoinRows = 1024
	}
	if sp.TPCHSF <= 0 {
		sp.TPCHSF = 0.001
	}
	return sp
}

// Request is one arrival of the open-loop stream.
type Request struct {
	Session uint64  // session id in [0, Sessions)
	Kind    Kind    // which kernel serves it
	Param   uint64  // the session's working-set selector
	Arrival float64 // arrival time in simulated cycles
}

// Bursty-arrival shape: requests are modulated in blocks of burstBlock;
// each block independently has probability burstProb of being hot (gaps
// divided by Spec.Burst); cold blocks stretch by burstStretch so the mean
// offered load stays near the Poisson process's.
const (
	burstBlock   = 32
	burstProb    = 0.2
	burstStretch = 1.2
	// burstLabel offsets the per-block derivation labels away from the
	// per-request labels so the two stream families never collide.
	burstLabel = uint64(1) << 40
	// spanSessionLabel and spanRequestLabel offset the span-id derivation
	// families the same way: session span ids derive from the session id,
	// request-tree span ids from the request index, and neither collides
	// with the arrival or burst streams.
	spanSessionLabel = uint64(2) << 40
	spanRequestLabel = uint64(3) << 40
)

// Arrivals generates the request stream. Every request derives its own
// RNG stream from the base seed via Derive(i) — a function of the seed
// material alone, not of how many values anything else consumed — so the
// stream is position-independent: request i's session, kind, parameter and
// gap are identical no matter what ran before (the PR 1 pitfall).
func Arrivals(sp Spec) []Request {
	sp = sp.Normalize()
	base := xrand.New(sp.Seed)
	reqs := make([]Request, sp.Requests)
	clock := 0.0
	for i := range reqs {
		r := base.Derive(uint64(i))
		gap := sp.MeanGap * r.ExpFloat64()
		if sp.Arrival == ArrivalBursty {
			block := uint64(i) / burstBlock
			if base.Derive(burstLabel+block).Float64() < burstProb {
				gap /= sp.Burst
			} else {
				gap *= burstStretch
			}
		}
		clock += gap
		sess := r.Uint64n(uint64(sp.Sessions))
		state := sess
		reqs[i] = Request{
			Session: sess,
			Kind:    sp.Mix.pick(r.Uint64n(uint64(sp.Mix.total()))),
			Param:   xrand.SplitMix64(&state), // session-affine working set
			Arrival: clock,
		}
	}
	return reqs
}

// Per-request kernel shapes, in simulated-memory operations.
const (
	reqRecordBytes = 16  // datagen.Record layout (key + value)
	pointProbes    = 4   // index lookups per point request
	joinProbes     = 12  // probe-side keys per join request
	joinBufBytes   = 256 // join request's short-lived result buffer
	aggWindow      = 192 // records streamed per aggregation request
	tpchWindow     = 96  // lineitem rows scanned per TPC-H request
)

// workset is the shared serving state: the loaded datasets, the pre-built
// index and the TPC-H engine, plus the setup cycles they cost.
type workset struct {
	recsBase uint64
	recRows  int
	tables   datagen.JoinTables
	idx      index.Index
	eng      *tpch.Engine
	liRows   int
	tpchCols tpch.Cols
	setup    float64
}

// prepare loads the serving datasets into m's simulated memory. Loading is
// single-threaded (a restore/import), exactly like the figure drivers, so
// First Touch places everything on the loader's node — the serving phase
// then fights the same placement battle the paper's workloads do.
func prepare(m *machine.Machine, sp Spec) *workset {
	w := &workset{tpchCols: tpch.Resolve("lineitem", "discount", "extendedprice", "quantity", "shipdate")}
	recs := datagen.CachedGenerate(datagen.MovingClusterDist, sp.DataRows, sp.DataCard, 11)
	base, loadCycles := query.LoadRecords(m, recs)
	w.recsBase, w.recRows = base, len(recs)
	w.setup += loadCycles

	w.tables = datagen.CachedJoin(sp.JoinRows, datagen.DefaultJoinRatio, 17)
	w.idx = index.New(index.ARTKind)
	res := m.Run(1, func(t *machine.Thread) {
		for _, r := range w.tables.R {
			w.idx.Insert(t, r.Key, r.Val)
		}
	})
	w.setup += res.WallCycles

	db := tpch.GenerateCached(sp.TPCHSF, 7)
	w.eng = tpch.NewEngine(tpch.Profiles()[0], m, db) // MonetDB-style columnar
	w.liRows = len(db.Lineitems)
	w.setup += w.eng.LoadCycles()
	return w
}

// phaseWin is one per-operator phase of one request's service window, in
// the serving thread's cycle clock. Phases partition the service window.
type phaseWin struct {
	name           string
	startCy, endCy float64
	buckets        []float64 // phase profile-bucket delta, nil unprofiled
}

// phaseTracker stamps per-operator phase boundaries during serveOne. It
// only reads the thread's cycle account and profile buckets, so tracking
// is observation-only; a nil tracker (spans off) costs one pointer check
// per mark.
type phaseTracker struct {
	m      *machine.Machine
	t      *machine.Thread
	lastCy float64
	lastBk []float64
	out    []phaseWin
}

func (p *phaseTracker) begin(m *machine.Machine, t *machine.Thread) {
	p.m, p.t = m, t
	p.lastCy = t.Cycles()
	p.lastBk = m.ThreadBuckets(t.ID())
	p.out = p.out[:0]
}

// mark closes the phase that began at the previous mark (or at begin).
func (p *phaseTracker) mark(name string) {
	cy := p.t.Cycles()
	bk := p.m.ThreadBuckets(p.t.ID())
	var delta []float64
	if bk != nil && p.lastBk != nil {
		delta = make([]float64, len(bk))
		for i := range bk {
			delta[i] = bk[i] - p.lastBk[i]
		}
	}
	p.out = append(p.out, phaseWin{name: name, startCy: p.lastCy, endCy: cy, buckets: delta})
	p.lastCy, p.lastBk = cy, bk
}

// serveOne executes one request's kernel on the calling thread. No RNG is
// consumed at service time — every data-dependent choice comes from the
// request's precomputed Param — so the per-thread service stream depends
// only on which requests the thread serves. ph, when non-nil, records
// per-operator phase boundaries for span collection.
func (w *workset) serveOne(t *machine.Thread, rq *Request, ph *phaseTracker) {
	switch rq.Kind {
	case PointLookup:
		n := uint64(len(w.tables.R))
		for k := uint64(0); k < pointProbes; k++ {
			w.idx.Lookup(t, w.tables.R[(rq.Param+k*0x9e3779b97f4a7c15)%n].Key)
		}
		if ph != nil {
			ph.mark("probe")
		}
		t.Charge(40)
		if ph != nil {
			ph.mark("compute")
		}
	case IndexJoin:
		n := uint64(len(w.tables.S))
		buf := t.Malloc(joinBufBytes)
		if ph != nil {
			ph.mark("alloc")
		}
		out := uint64(0)
		for k := uint64(0); k < joinProbes; k++ {
			key := w.tables.S[(rq.Param+k*0xd1342543de82ef95)%n].Key
			if _, ok := w.idx.Lookup(t, key); ok {
				t.Write(buf+(out%(joinBufBytes/reqRecordBytes))*reqRecordBytes, reqRecordBytes)
				out++
			}
		}
		if ph != nil {
			ph.mark("probe")
		}
		t.Free(buf, joinBufBytes)
		t.Charge(90)
		if ph != nil {
			ph.mark("finish")
		}
	case AggregateScan:
		win := aggWindow
		if win > w.recRows {
			win = w.recRows
		}
		start := 0
		if w.recRows > win {
			start = int(rq.Param % uint64(w.recRows-win))
		}
		t.ReadRun(w.recsBase+uint64(start)*reqRecordBytes, reqRecordBytes, win)
		if ph != nil {
			ph.mark("scan")
		}
		t.Charge(1.5 * float64(win))
		if ph != nil {
			ph.mark("compute")
		}
	case TPCHScan:
		win := tpchWindow
		if win > w.liRows {
			win = w.liRows
		}
		start := 0
		if w.liRows > win {
			start = int(rq.Param % uint64(w.liRows-win))
		}
		for j := 0; j < win; j++ {
			w.eng.Scan(t, w.tpchCols, start+j)
		}
		if ph != nil {
			ph.mark("scan")
		}
	}
}

// perReq is one request's measured service window.
type perReq struct {
	thread  int
	startCy float64 // thread cycle account at service start
	endCy   float64
	service float64
	buckets []float64 // service-window profile-bucket deltas, nil unprofiled

	// Span-collection extras, populated only when the machine was marked
	// for spans: the service window on the machine's global clock (the
	// clock kernel-daemon events are stamped with), the perf-counter
	// window, and the per-operator phases.
	gStart, gEnd float64
	ctrDelta     machine.Counters
	phases       []phaseWin
}

// measureService drains the request stream on sp.Workers simulated threads
// (thread j serves requests j, j+c, j+2c, ...) and returns each request's
// service cycles plus, when profiling is on, its per-bucket attribution
// delta. The cooperative scheduler runs one thread at a time, so the
// shared index/engine state needs no synchronization and the measurement
// is deterministic. When the machine is marked for spans (Observe with
// Spans), each window additionally records its global-clock bounds,
// counter delta and per-operator phases — all read-only telemetry, so the
// simulated run is bit-identical either way.
func measureService(m *machine.Machine, w *workset, reqs []Request, workers int) ([]perReq, machine.Result) {
	svc := make([]perReq, len(reqs))
	withSpans := m.SpansEnabled()
	tel := m.Observe(machine.ObserveOptions{})
	res := m.Run(workers, func(t *machine.Thread) {
		id := t.ID()
		var ph *phaseTracker
		if withSpans {
			ph = &phaseTracker{}
		}
		for i := id; i < len(reqs); i += workers {
			before := m.ThreadBuckets(id)
			var c0 machine.Counters
			svc[i].thread = id
			svc[i].startCy = t.Cycles()
			if withSpans {
				svc[i].gStart = tel.Clock()
				c0 = tel.Counters()
				ph.begin(m, t)
			}
			w.serveOne(t, &reqs[i], ph)
			svc[i].endCy = t.Cycles()
			svc[i].service = svc[i].endCy - svc[i].startCy
			if withSpans {
				svc[i].gEnd = tel.Clock()
				svc[i].ctrDelta = counterDelta(c0, tel.Counters())
				svc[i].phases = append([]phaseWin(nil), ph.out...)
			}
			if after := m.ThreadBuckets(id); after != nil {
				for b := range after {
					after[b] -= before[b]
				}
				svc[i].buckets = after
			}
		}
	})
	return svc, res
}

// The telemetry-flattening helpers are shared with the TPC-H CLI through
// the span package; local names keep the assembly code short.
var (
	counterDelta = span.CounterDelta
	counterMap   = span.CounterMap
	bucketMap    = span.BucketMap
)

// queueSim is the G/G/c FCFS overlay: requests enter service in arrival
// order on the first of c servers to free up (ties to the lowest server
// id), so latency[i] = wait[i] + service[i] with wait[i] the queueing
// delay. makespan is the last completion time.
func queueSim(reqs []Request, svc []perReq, c int) (latency, wait []float64, makespan float64) {
	latency = make([]float64, len(reqs))
	wait = make([]float64, len(reqs))
	free := make([]float64, c)
	for i := range reqs {
		s := 0
		for j := 1; j < c; j++ {
			if free[j] < free[s] {
				s = j
			}
		}
		start := reqs[i].Arrival
		if free[s] > start {
			start = free[s]
		}
		wait[i] = start - reqs[i].Arrival
		done := start + svc[i].service
		latency[i] = done - reqs[i].Arrival
		free[s] = done
		if done > makespan {
			makespan = done
		}
	}
	return latency, wait, makespan
}

// SLOAttainment is one latency target and the fraction of measured
// requests that met it.
type SLOAttainment struct {
	Target   float64
	Attained float64
}

// HistBucket is one power-of-two latency bucket: [Lo, Hi) cycles. The
// Lo == 0 bucket collects sub-cycle latencies.
type HistBucket struct {
	Lo, Hi float64
	Count  int
}

// Metrics summarizes the measured (post-warmup) requests. Every field is
// finite; an empty measured set yields all zeros.
type Metrics struct {
	Requests    int
	MeanService float64
	MeanWait    float64
	MeanLatency float64
	P50         float64
	P90         float64
	P99         float64
	P999        float64
	Makespan    float64 // last completion, warmup included
	Throughput  float64 // measured requests per billion simulated cycles
	SLOs        []SLOAttainment
	Hist        []HistBucket
}

// percentile is the nearest-rank percentile of an ascending slice; 0 on
// empty input (never NaN — metrics land in JSON).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Component is one tail-attribution row: a metric over all measured
// requests versus over the p999 tail alone.
type Component struct {
	Name string
	All  float64
	Tail float64
}

// Tail is the p999 tail attribution: which profile buckets the slow
// requests' service cycles went to, how much of their latency was queueing
// rather than service, and which trace events co-occurred with them.
type Tail struct {
	// Threshold is the p999 latency; Count the number of measured requests
	// at or above it.
	Threshold float64
	Count     int
	// Buckets holds, per profile bucket with any weight, the bucket's
	// share of service-window cycles over all measured requests vs over
	// tail requests. Empty when the machine was not profiling.
	Buckets []Component
	// QueueWait is the queueing share of total latency, all vs tail.
	QueueWait Component
	// Events holds mean trace events per request by kind (events whose
	// emitting thread and cycle fall inside a request's service window),
	// all vs tail. Empty when no recorder was attached.
	Events []Component
}

// Outcome is one serving run's full result.
type Outcome struct {
	Spec    Spec
	Setup   float64        // dataset/index/engine load cycles (pre-reset)
	Result  machine.Result // the service phase's machine result
	Metrics Metrics
	Tail    Tail
	// Spans is the run's request-level span tree (session → request →
	// queue_wait/service → phase), populated only when the machine was
	// marked for spans (Observe with Spans). Warmup requests included;
	// MeasuredSpans filters them out.
	Spans []span.Span
}

// MeasuredSpans returns the span tree restricted to post-warmup requests
// (session spans are kept — they scope the whole run).
func (o *Outcome) MeasuredSpans() []span.Span {
	if o.Spec.Warmup == 0 {
		return o.Spans
	}
	out := make([]span.Span, 0, len(o.Spans))
	for _, s := range o.Spans {
		if s.Kind == span.KindSession || s.Seq >= o.Spec.Warmup {
			out = append(out, s)
		}
	}
	return out
}

// TailIDs returns the request-span ids of the p999 cohort: measured
// requests whose latency (the request span's duration) is at or above
// Metrics.P999. Empty when nothing was measured or spans are off.
func (o *Outcome) TailIDs() map[uint64]bool {
	tail := map[uint64]bool{}
	if o.Metrics.Requests == 0 {
		return tail
	}
	for _, s := range o.Spans {
		if s.Kind == span.KindRequest && s.Seq >= o.Spec.Warmup && s.Duration() >= o.Metrics.P999 {
			tail[s.ID] = true
		}
	}
	return tail
}

// Blame joins the measured service spans against their event windows and
// returns the per-mechanism×initiator tail attribution (see span.Blame).
func (o *Outcome) Blame() []span.BlameRow {
	return span.Blame(o.MeasuredSpans(), o.TailIDs())
}

// Run executes one serving run on an already-configured machine: dataset
// setup, counter/profile reset (the metrics scope to the service phase),
// the measured service drain, and the queueing overlay. It never fails:
// the spec is normalized and every metric is defined (as zero) even when
// warmup swallows all requests.
func Run(m *machine.Machine, sp Spec) *Outcome {
	sp = sp.Normalize()
	reqs := Arrivals(sp)
	w := prepare(m, sp)
	m.ResetCounters()

	evStart := 0
	rec, _ := m.Trace().(*trace.Recorder)
	if rec != nil {
		evStart = len(rec.Events)
	}
	svc, res := measureService(m, w, reqs, sp.Workers)
	latency, wait, makespan := queueSim(reqs, svc, sp.Workers)

	out := &Outcome{Spec: sp, Setup: w.setup, Result: res}
	measured := make([]int, 0, len(reqs))
	for i := sp.Warmup; i < len(reqs); i++ {
		measured = append(measured, i)
	}
	out.Metrics = computeMetrics(sp, svc, latency, wait, measured, makespan)
	p999 := out.Metrics.P999

	// One pass matches the recorded events to request windows for both
	// consumers: the tail counts the serving threads' own events in
	// measured requests by kind, and each service span counts every event
	// in its window by kind and initiator.
	var events []trace.Event
	if rec != nil {
		events = rec.Events[evStart:]
	}
	var evCount []map[string]uint64
	if m.SpansEnabled() {
		evCount = make([]map[string]uint64, len(reqs))
	}
	allEv := make([]float64, len(trace.Kinds()))
	tailEv := make([]float64, len(trace.Kinds()))
	matchEvents(svc, events, func(i int, ev trace.Event) {
		if evCount != nil {
			if evCount[i] == nil {
				evCount[i] = map[string]uint64{}
			}
			evCount[i][ev.Kind.String()+"/"+ev.Initiator.String()]++
		}
		if ev.Thread >= 0 && i >= sp.Warmup && int(ev.Kind) < len(allEv) {
			allEv[ev.Kind]++
			if latency[i] >= p999 {
				tailEv[ev.Kind]++
			}
		}
	})
	out.Tail = computeTail(svc, latency, wait, measured, p999, allEv, tailEv)
	if evCount != nil {
		out.Spans = buildSpans(sp, reqs, svc, latency, wait, evCount)
	}
	return out
}

// spanID draws sequential nonzero ids from a derived stream (see
// span.ID); ids are a function of the seed material alone.
var spanID = span.ID

// buildSpans assembles the run's span tree from already-collected
// telemetry: session spans (arrival clock, spanning first arrival to last
// completion), then per request — in arrival order — a request span
// (arrival clock; duration = latency), its queue_wait child, its service
// child (thread-cycle clock, with the global-clock window, bucket delta,
// counter window and the in-window event counts evCount) and the service
// span's per-operator phases. Everything is derived from svc/latency/wait
// and evCount; nothing touches the machine.
func buildSpans(sp Spec, reqs []Request, svc []perReq, latency, wait []float64, evCount []map[string]uint64) []span.Span {
	base := xrand.New(sp.Seed)

	// Session spans: one per distinct session id, in session-id order,
	// spanning its first arrival to its last completion.
	type sessWin struct{ start, end float64 }
	sessions := map[uint64]*sessWin{}
	for i := range reqs {
		end := reqs[i].Arrival + latency[i]
		w := sessions[reqs[i].Session]
		if w == nil {
			sessions[reqs[i].Session] = &sessWin{start: reqs[i].Arrival, end: end}
			continue
		}
		if reqs[i].Arrival < w.start {
			w.start = reqs[i].Arrival
		}
		if end > w.end {
			w.end = end
		}
	}
	sids := make([]uint64, 0, len(sessions))
	for sid := range sessions {
		sids = append(sids, sid)
	}
	slices.Sort(sids)

	spans := make([]span.Span, 0, len(sids)+4*len(reqs))
	sessID := make(map[uint64]uint64, len(sids))
	for _, sid := range sids {
		id := spanID(base.Derive(spanSessionLabel + sid))
		sessID[sid] = id
		w := sessions[sid]
		spans = append(spans, span.Span{
			ID: id, Kind: span.KindSession, Name: "session",
			Seq: -1, Session: sid, Thread: -1,
			Start: w.start, End: w.end,
		})
	}

	for i := range reqs {
		r := base.Derive(spanRequestLabel + uint64(i))
		reqID, qwID, svcID := spanID(r), spanID(r), spanID(r)
		rq, sv := &reqs[i], &svc[i]
		name := rq.Kind.String()
		spans = append(spans,
			span.Span{
				ID: reqID, Parent: sessID[rq.Session],
				Kind: span.KindRequest, Name: name,
				Seq: i, Session: rq.Session, Thread: sv.thread,
				Start: rq.Arrival, End: rq.Arrival + latency[i],
			},
			span.Span{
				ID: qwID, Parent: reqID,
				Kind: span.KindQueueWait, Name: name,
				Seq: i, Session: rq.Session, Thread: sv.thread,
				Start: rq.Arrival, End: rq.Arrival + wait[i],
			},
			span.Span{
				ID: svcID, Parent: reqID,
				Kind: span.KindService, Name: name,
				Seq: i, Session: rq.Session, Thread: sv.thread,
				Start: sv.startCy, End: sv.endCy,
				GStart: sv.gStart, GEnd: sv.gEnd,
				Buckets:  bucketMap(sv.buckets),
				Events:   evCount[i],
				Counters: counterMap(sv.ctrDelta),
			})
		for _, p := range sv.phases {
			spans = append(spans, span.Span{
				ID: spanID(r), Parent: svcID,
				Kind: span.KindPhase, Name: p.name,
				Seq: i, Session: rq.Session, Thread: sv.thread,
				Start: p.startCy, End: p.endCy,
				Buckets: bucketMap(p.buckets),
			})
		}
	}
	return spans
}

// matchEvents calls fn(i, ev) for every recorded event that fell inside
// request i's service window. Thread-stamped events carry the serving
// thread's cycle account and match that thread's window; daemon events
// (Thread == -1) carry the machine's global clock and stall every thread,
// so they match the in-flight request on each thread whose global window
// contains them. Global windows are recorded only with spans on; without
// them they are all zero and match nothing.
func matchEvents(svc []perReq, events []trace.Event, fn func(i int, ev trace.Event)) {
	if len(events) == 0 {
		return
	}
	// Per-thread windows in service order: ascending in both clocks, since
	// each thread serves its requests sequentially, so a binary search for
	// the last window starting at or before an event places it.
	var byThread [][]int
	for i := range svc {
		for svc[i].thread >= len(byThread) {
			byThread = append(byThread, nil)
		}
		byThread[svc[i].thread] = append(byThread[svc[i].thread], i)
	}
	for _, ev := range events {
		if ev.Thread >= 0 {
			if int(ev.Thread) >= len(byThread) {
				continue
			}
			wins := byThread[ev.Thread]
			j := sort.Search(len(wins), func(k int) bool { return svc[wins[k]].startCy > ev.Cycle })
			if j > 0 && ev.Cycle < svc[wins[j-1]].endCy {
				fn(wins[j-1], ev)
			}
			continue
		}
		for _, wins := range byThread {
			j := sort.Search(len(wins), func(k int) bool { return svc[wins[k]].gStart > ev.Cycle })
			if j > 0 && ev.Cycle < svc[wins[j-1]].gEnd {
				fn(wins[j-1], ev)
			}
		}
	}
}

func computeMetrics(sp Spec, svc []perReq, latency, wait []float64, measured []int, makespan float64) Metrics {
	mt := Metrics{Requests: len(measured), Makespan: makespan}
	if makespan > 0 {
		mt.Throughput = float64(len(measured)) / makespan * 1e9
	}
	if len(measured) == 0 {
		for _, slo := range sp.SLOs {
			mt.SLOs = append(mt.SLOs, SLOAttainment{Target: slo})
		}
		return mt
	}
	lats := make([]float64, 0, len(measured))
	for _, i := range measured {
		mt.MeanService += svc[i].service
		mt.MeanWait += wait[i]
		mt.MeanLatency += latency[i]
		lats = append(lats, latency[i])
	}
	n := float64(len(measured))
	mt.MeanService /= n
	mt.MeanWait /= n
	mt.MeanLatency /= n
	sort.Float64s(lats)
	mt.P50 = percentile(lats, 0.50)
	mt.P90 = percentile(lats, 0.90)
	mt.P99 = percentile(lats, 0.99)
	mt.P999 = percentile(lats, 0.999)
	for _, slo := range sp.SLOs {
		met := sort.SearchFloat64s(lats, math.Nextafter(slo, math.Inf(1)))
		mt.SLOs = append(mt.SLOs, SLOAttainment{Target: slo, Attained: float64(met) / n})
	}
	// Power-of-two latency histogram, TraceCostHistogram-style.
	const maxBucket = 60
	var hist [maxBucket + 1]int
	for _, l := range lats {
		b := 0
		if l >= 1 {
			b = int(math.Floor(math.Log2(l))) + 1
			if b > maxBucket {
				b = maxBucket
			}
		}
		hist[b]++
	}
	for b, cnt := range hist {
		if cnt == 0 {
			continue
		}
		hb := HistBucket{Count: cnt}
		if b > 0 {
			hb.Lo = math.Pow(2, float64(b-1))
			hb.Hi = math.Pow(2, float64(b))
		} else {
			hb.Hi = 1
		}
		mt.Hist = append(mt.Hist, hb)
	}
	return mt
}

// computeTail attributes the p999 tail. allEv and tailEv count, per trace
// kind, the serving threads' events inside measured and tail requests'
// service windows.
func computeTail(svc []perReq, latency, wait []float64, measured []int, p999 float64, allEv, tailEv []float64) Tail {
	tl := Tail{Threshold: p999}
	if len(measured) == 0 {
		return tl
	}
	var tail []int
	for _, i := range measured {
		if latency[i] >= p999 {
			tail = append(tail, i)
		}
	}
	tl.Count = len(tail)

	// Profile-bucket shares of service-window cycles, all vs tail.
	share := func(set []int) ([]float64, bool) {
		sum := make([]float64, machine.NumBuckets)
		total := 0.0
		any := false
		for _, i := range set {
			if svc[i].buckets == nil {
				continue
			}
			any = true
			for b, c := range svc[i].buckets {
				sum[b] += c
				total += c
			}
		}
		if total > 0 {
			for b := range sum {
				sum[b] /= total
			}
		}
		return sum, any
	}
	allShare, okAll := share(measured)
	tailShare, _ := share(tail)
	if okAll {
		for b := 0; b < int(machine.NumBuckets); b++ {
			if allShare[b] == 0 && tailShare[b] == 0 {
				continue
			}
			tl.Buckets = append(tl.Buckets, Component{
				Name: machine.Bucket(b).String(),
				All:  allShare[b],
				Tail: tailShare[b],
			})
		}
	}

	// Queueing share of latency.
	waitShare := func(set []int) float64 {
		var w, l float64
		for _, i := range set {
			w += wait[i]
			l += latency[i]
		}
		if l == 0 {
			return 0
		}
		return w / l
	}
	tl.QueueWait = Component{Name: "queue_wait", All: waitShare(measured), Tail: waitShare(tail)}

	// Mean events per request by kind, all vs tail.
	for _, k := range trace.Kinds() {
		if allEv[k] == 0 && tailEv[k] == 0 {
			continue
		}
		c := Component{Name: "event:" + k.String(), All: allEv[k] / float64(len(measured))}
		if len(tail) > 0 {
			c.Tail = tailEv[k] / float64(len(tail))
		}
		tl.Events = append(tl.Events, c)
	}
	return tl
}

// calRequests bounds the closed-loop calibration run's length.
const calRequests = 128

// calKey identifies one calibration: the machine, the worker count and
// the request-stream and dataset sizing.
type calKey struct {
	machine                      string
	workers, requests            int
	dataRows, dataCard, joinRows int
	tpchSF                       float64
	seed                         uint64
}

var calMemo memo.Table[calKey, float64]

// specByName resolves a spec name ("Machine A", ...), so calibration can
// mirror a trial machine on a fresh one without aliasing it.
func specByName(name string) machine.Spec {
	for _, s := range machine.AllSpecs() {
		if s.Name == name {
			return s
		}
	}
	panic("serve: unknown machine " + name)
}

// CalibratedMeanService measures the serving mix's mean closed-loop
// service time (cycles per request, no queueing) on a fresh
// default-configured machine of the named spec, memoized per (machine,
// workers, sizing). Campaign trials and the serve driver both anchor their
// arrival rate and SLO targets to this one number, so every configuration
// of a sweep faces the identical offered load.
func CalibratedMeanService(machineName string, sp Spec) float64 {
	sp = sp.Normalize()
	if sp.Requests > calRequests {
		sp.Requests = calRequests
	}
	spec := specByName(machineName)
	key := calKey{machineName, sp.Workers, sp.Requests,
		sp.DataRows, sp.DataCard, sp.JoinRows, sp.TPCHSF, sp.Seed}
	return calMemo.Get(key, func() float64 {
		m := machine.New(spec)
		m.Configure(machine.DefaultConfig(sp.Workers))
		reqs := Arrivals(sp)
		w := prepare(m, sp)
		m.ResetCounters()
		svc, _ := measureService(m, w, reqs, sp.Workers)
		total := 0.0
		for i := range svc {
			total += svc[i].service
		}
		return total / float64(len(svc))
	})
}

// GapFor converts a calibrated mean service time into the open-loop mean
// inter-arrival gap that offers `util` utilization to `workers` servers
// (util <= 0 defaults to 0.7: loaded, but stable).
func GapFor(meanService float64, workers int, util float64) float64 {
	if util <= 0 {
		util = 0.7
	}
	if workers < 1 {
		workers = 1
	}
	return meanService / (float64(workers) * util)
}

// DefaultSLOs derives the standard latency targets from the calibrated
// mean service time: 5x (interactive), 20x (loaded) and 100x (batch).
func DefaultSLOs(meanService float64) []float64 {
	return []float64{5 * meanService, 20 * meanService, 100 * meanService}
}

// SLOMultiples labels DefaultSLOs in table headers.
func SLOMultiples() []string { return []string{"5x", "20x", "100x"} }

// tuneTPCHSF fixes the WS workload's TPC-H fragment size: campaigns vary
// only the tuner's Size axes, and the fragment stays a small constant of
// the mix either way.
const tuneTPCHSF = 0.001

// TuneSpec derives the WS tuning workload's serving spec from the tuner's
// sizing, on the machine the trial configured: workers follow the trial's
// thread count, the arrival rate and SLOs anchor to the calibrated
// default-config service time (identical for every point of a sweep), and
// the request count scales with the dataset.
func TuneSpec(m *machine.Machine, aggRecords, aggCard, joinR int) Spec {
	req := aggRecords / 32
	if req < 64 {
		req = 64
	}
	if req > 2048 {
		req = 2048
	}
	sp := Spec{
		Requests: req,
		Warmup:   req / 16,
		Workers:  m.Config().Threads,
		Seed:     m.Config().Seed,
		DataRows: aggRecords,
		DataCard: aggCard,
		JoinRows: joinR,
		TPCHSF:   tuneTPCHSF,
	}
	sp = sp.Normalize()
	mean := CalibratedMeanService(m.Spec.Name, sp)
	sp.MeanGap = GapFor(mean, sp.Workers, 0)
	sp.SLOs = DefaultSLOs(mean)
	return sp
}

// TuneObjective is the WS campaign objective: run the serving mix on the
// trial's machine and return its p99 latency in cycles (the quantity a
// latency campaign minimizes, where W1/W3 minimize wall cycles).
func TuneObjective(m *machine.Machine, aggRecords, aggCard, joinR int) float64 {
	return Run(m, TuneSpec(m, aggRecords, aggCard, joinR)).Metrics.P99
}
