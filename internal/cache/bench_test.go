package cache

import (
	"testing"

	"repro/internal/xrand"
)

// tagStream is a fixed, seeded tag stream for a cache of capacity entries
// (a power of two): seven in eight tags come from a hot subset of half the
// capacity, spread evenly over the sets, and the rest from a cold tail 64
// times the capacity. Hot tags come back after a few other tags of their
// set, so lookups hit at every recency depth; cold tags are conflict
// misses that push the hot ones down.
type tagStream struct {
	r         *xrand.Rand
	hot, cold uint64
}

func newTagStream(capacity int) tagStream {
	return tagStream{r: xrand.New(1), hot: uint64(capacity / 2), cold: uint64(64 * capacity)}
}

func (s tagStream) next() uint64 {
	v := s.r.Uint64()
	if v&7 != 0 {
		return v >> 3 & (s.hot - 1)
	}
	return s.hot + v>>3&(s.cold-1)
}

var sinkCache *Cache

// BenchmarkLayer measures the host cost of one lookup in each simulated
// cache array the machine layer builds (Table II geometries), warm and in
// steady state, plus the construction of the largest one.
//
//	go test ./internal/cache -run '^$' -bench BenchmarkLayer -benchmem
func BenchmarkLayer(b *testing.B) {
	for _, g := range []struct {
		name          string
		entries, ways int
	}{
		{"llc-C", 40 << 20 / 64, 16}, // Machine C: 40 MiB per node, 64 B lines
		{"llc-A", 2 << 20 / 64, 16},  // Machine A: 2 MiB per node
		{"l1", 64 << 10 / 64, 8},     // 64 KiB per core, 8-way
	} {
		b.Run(g.name, func(b *testing.B) {
			c := New(g.entries, g.ways)
			s := newTagStream(c.Entries())
			for i := 0; i < 4*c.Entries(); i++ {
				c.Access(s.next())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(s.next())
			}
		})
	}
	b.Run("tlb", func(b *testing.B) {
		// Machine C's TLB: 1,600 4 KiB and 1,568 2 MiB entries, 4-way;
		// the stream addresses 4 KiB pages.
		t := NewTLB(64+1536, 32+1536, 4)
		s := newTagStream(t.small.Entries())
		for i := 0; i < 4*t.small.Entries(); i++ {
			t.Access(s.next(), false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Access(s.next(), false)
		}
	})
	b.Run("new-llc-C", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkCache = New(40<<20/64, 16)
		}
	})
}
