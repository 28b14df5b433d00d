package span

import (
	"io"
	"testing"

	"repro/internal/xrand"
)

// benchMix is a fixed span mix shaped like a serving run's output: per
// request, one session, request, queue_wait and service span and two
// phases. A service span carries six to ten profile buckets and one to
// three event counts, one in eight also a counter window, and each phase
// a few buckets. Stamps and bucket cycles are fractional, as the
// simulated clocks make them.
func benchMix() []Span {
	buckets := []string{"alloc_stall", "alloc_work", "coherence", "compute", "dram_local",
		"dram_remote_1hop", "dram_remote_3hop", "fault_service", "l1_hit", "llc_hit", "page_walk"}
	events := []string{"alloc_stall/alloc", "coherence/demand", "huge_map/demand", "page_migration/autonuma"}
	r := xrand.New(1)
	cycles := func() float64 { return float64(r.Intn(20000)) + float64(r.Intn(3))/3 }
	bucketMap := func(n int) map[string]float64 {
		m := map[string]float64{}
		for _, i := range r.Perm(len(buckets))[:n] {
			m[buckets[i]] = cycles()
		}
		return m
	}
	var spans []Span
	for seq := 0; seq < 64; seq++ {
		sess, thread := r.Uint64n(1<<21), seq%16
		arrival := float64(seq)*977.5 + r.Float64()
		wait, svc := cycles(), cycles()
		ev := map[string]uint64{}
		for _, i := range r.Perm(len(events))[:1+r.Intn(3)] {
			ev[events[i]] = 1 + r.Uint64n(10)
		}
		var ctr map[string]uint64
		if seq%8 == 0 {
			ctr = map[string]uint64{"huge_promotions": 3, "minor_faults": 3 + r.Uint64n(4)}
		}
		sid, rid, sv := r.Uint64(), r.Uint64(), r.Uint64()
		spans = append(spans,
			Span{Cell: "default/poisson", ID: sid, Kind: KindSession, Name: "session",
				Seq: -1, Session: sess, Thread: -1, Start: arrival, End: arrival + wait + svc},
			Span{Cell: "default/poisson", ID: rid, Parent: sid, Kind: KindRequest, Name: "point",
				Seq: seq, Session: sess, Thread: thread, Start: arrival, End: arrival + wait + svc},
			Span{Cell: "default/poisson", ID: r.Uint64(), Parent: rid, Kind: KindQueueWait, Name: "point",
				Seq: seq, Session: sess, Thread: thread, Start: arrival, End: arrival + wait},
			Span{Cell: "default/poisson", ID: sv, Parent: rid, Kind: KindService, Name: "point",
				Seq: seq, Session: sess, Thread: thread, Start: 0, End: svc,
				GStart: 1309754.3333333288 + arrival, GEnd: 1309754.3333333288 + arrival + svc,
				Buckets: bucketMap(6 + r.Intn(5)), Events: ev, Counters: ctr},
			Span{Cell: "default/poisson", ID: r.Uint64(), Parent: sv, Kind: KindPhase, Name: "probe",
				Seq: seq, Session: sess, Thread: thread, Start: 0, End: svc - 40, Buckets: bucketMap(5)},
			Span{Cell: "default/poisson", ID: r.Uint64(), Parent: sv, Kind: KindPhase, Name: "compute",
				Seq: seq, Session: sess, Thread: thread, Start: svc - 40, End: svc, Buckets: bucketMap(1)})
	}
	return spans
}

var sinkRows []BlameRow

// BenchmarkLayer measures the span layer's host cost over benchMix:
//
//	encode — one op writes one span as JSONL: WriteJSONL of the whole
//	         mix to io.Discard, over and over
//	blame  — one op is one Blame over the whole mix, with one request in
//	         eight in the tail cohort
//
// Run with a fixed iteration count, a multiple of the mix's 384 spans:
//
//	go test ./internal/span -run '^$' -bench BenchmarkLayer -benchtime 38400x
func BenchmarkLayer(b *testing.B) {
	mix := benchMix()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += len(mix) {
			if err := WriteJSONL(io.Discard, mix[:min(len(mix), b.N-i)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blame", func(b *testing.B) {
		tail := map[uint64]bool{}
		for i, s := range mix {
			if s.Kind == KindRequest && i%48 == 1 {
				tail[s.ID] = true
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkRows = Blame(mix, tail)
		}
	})
}
