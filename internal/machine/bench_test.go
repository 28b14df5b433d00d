package machine

import (
	"runtime"
	"testing"

	"repro/internal/trace"
)

// countSink is a trace sink with negligible cost, so traced benchmarks
// measure the access path's hook overhead rather than event storage.
type countSink struct{ n uint64 }

func (s *countSink) Emit(trace.Event) { s.n++ }

// benchAccessPath measures simulated accesses per host second through one
// warm 8MiB buffer on Machine B. kind selects the charging API; traced and
// profiled toggle the observation hooks the fast path hoists out of the
// inner loop.
func benchAccessPath(b *testing.B, kind string, traced, profiled bool) {
	m := NewB()
	m.Configure(testConfig(1))
	o := ObserveOptions{Profile: profiled}
	if traced {
		o.Sink = &countSink{}
	}
	m.Observe(o)
	const bufBytes = 8 << 20
	const lines = bufBytes / 64
	var base uint64
	m.Run(1, func(t *Thread) {
		base = t.Malloc(bufBytes)
		t.WriteRun(base, 64, lines) // pre-fault so iterations measure the warm path
	})
	b.ResetTimer()
	m.Run(1, func(t *Thread) {
		for done := 0; done < b.N; {
			n := lines
			if b.N-done < n {
				n = b.N - done
			}
			switch kind {
			case "scalar":
				for j := 0; j < n; j++ {
					t.Read(base+uint64(j)*64, 8)
				}
			case "batched":
				t.ReadRun(base, 64, n)
			case "strided":
				// Page-strided probe: one line per 4KiB page, wrapping
				// through the buffer.
				left := n
				for left > 0 {
					c := bufBytes / 4096
					if c > left {
						c = left
					}
					t.ReadStrided(base, 8, 4096, c)
					left -= c
				}
			}
			done += n
		}
	})
}

func BenchmarkAccessPath(b *testing.B) {
	for _, kind := range []string{"scalar", "batched", "strided"} {
		for _, mode := range []struct {
			name             string
			traced, profiled bool
		}{
			{"plain", false, false},
			{"traced", true, false},
			{"profiled", false, true},
		} {
			b.Run(kind+"/"+mode.name, func(b *testing.B) {
				benchAccessPath(b, kind, mode.traced, mode.profiled)
			})
		}
	}
}

// BenchmarkAccessPathWriteRun isolates the store path (coherence directory
// updates on top of the load walk).
func BenchmarkAccessPathWriteRun(b *testing.B) {
	m := NewB()
	m.Configure(testConfig(1))
	const bufBytes = 8 << 20
	const lines = bufBytes / 64
	var base uint64
	m.Run(1, func(t *Thread) {
		base = t.Malloc(bufBytes)
		t.WriteRun(base, 64, lines)
	})
	b.ResetTimer()
	m.Run(1, func(t *Thread) {
		for done := 0; done < b.N; {
			n := lines
			if b.N-done < n {
				n = b.N - done
			}
			t.WriteRun(base, 64, n)
			done += n
		}
	})
}

// BenchmarkLayer measures the round engine's host cost per simulated
// operation on Machine A under the tuned configuration (sparse placement,
// no daemons):
//
//	round     — one round of 16 threads that each charge one full quantum
//	            (empty quanta: the cost is the handoffs and round boundary);
//	            thread set-up is amortized over the Run
//	coherence — 256 accesses by each of two threads on nodes 0 and 1, which
//	            alternately write and read the same 4,096 lines; every
//	            access misses L1, so it goes through coherencePenalty
//	first-run — the first Run on a fresh machine, 16 threads charging once,
//	            timed from a just-collected heap
//
// Run with a fixed iteration count, since simulated state depends on it:
//
//	go test ./internal/machine -run '^$' -bench BenchmarkLayer -benchtime 2000x
func BenchmarkLayer(b *testing.B) {
	b.Run("round", func(b *testing.B) {
		m := NewA()
		m.Configure(TunedConfig(16))
		b.ReportAllocs()
		b.ResetTimer()
		m.Run(16, func(t *Thread) {
			for i := 0; i < b.N; i++ {
				t.Charge(m.P.Quantum)
			}
		})
	})
	b.Run("coherence", func(b *testing.B) {
		const lines = 4096
		m := NewA()
		m.Configure(TunedConfig(2))
		var base uint64
		m.Run(1, func(t *Thread) {
			base = t.Malloc(lines * 64)
			t.WriteRun(base, 64, lines)
		})
		b.ReportAllocs()
		b.ResetTimer()
		m.Run(2, func(t *Thread) {
			for i := 0; i < b.N; i++ {
				write := (i+t.ID())%2 == 0
				for j := 0; j < 256; j++ {
					a := base + uint64((i*256+j)%lines)*64
					if write {
						t.Write(a, 8)
					} else {
						t.Read(a, 8)
					}
				}
			}
		})
	})
	b.Run("first-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := NewA()
			m.Configure(TunedConfig(16))
			// Start every timed Run from the same collector state: an
			// iteration allocates about one heap goal, so without this
			// the timed share of collections follows allocation sizes.
			runtime.GC()
			b.StartTimer()
			m.Run(16, func(t *Thread) { t.Charge(1) })
		}
	})
}
