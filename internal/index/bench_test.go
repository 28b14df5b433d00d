package index

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/machine"
)

var sinkVal uint64

// BenchmarkLayer measures the ART's host cost per key on Machine A under
// the tuned configuration, over the 40,000 dense shuffled keys of a W3
// build side (datagen.Join R, seed 1), by one thread:
//
//	art-insert — one op inserts one key; every 40,000 ops start a fresh
//	             index, outside the timer
//	art-lookup — one op looks up one of the join's probe keys in the
//	             built index
//
// Run with a fixed iteration count, since simulated state depends on it:
//
//	go test ./internal/index -run '^$' -bench BenchmarkLayer -benchtime 40000x
func BenchmarkLayer(b *testing.B) {
	tables := datagen.Join(40000, 16, 1)
	newMachine := func() *machine.Machine {
		m := machine.NewA()
		m.Configure(machine.TunedConfig(m.Spec.HardwareThreads()))
		return m
	}
	b.Run("art-insert", func(b *testing.B) {
		m := newMachine()
		var idx *art
		b.ReportAllocs()
		b.ResetTimer()
		m.Run(1, func(t *machine.Thread) {
			for i := 0; i < b.N; i++ {
				r := tables.R[i%len(tables.R)]
				if i%len(tables.R) == 0 {
					b.StopTimer()
					idx = newART()
					b.StartTimer()
				}
				idx.Insert(t, r.Key, r.Val)
			}
		})
	})
	b.Run("art-lookup", func(b *testing.B) {
		m := newMachine()
		idx := newART()
		m.Run(1, func(t *machine.Thread) {
			for _, r := range tables.R {
				idx.Insert(t, r.Key, r.Val)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		m.Run(1, func(t *machine.Thread) {
			for i := 0; i < b.N; i++ {
				sinkVal, _ = idx.Lookup(t, tables.S[i%len(tables.S)].Key)
			}
		})
	})
}
