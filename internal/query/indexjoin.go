package query

import (
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/machine"
)

// IndexJoin executes W4: an index nested-loop join over the same dataset as
// W3. The index over R is pre-built (single writer, as a loaded database
// index would be), then all threads probe it with S, materializing matches
// into thread-local output buffers. Because the index is pre-built, the
// probe phase is allocation-light — which is why the paper sees smaller
// allocator gains here than in W3.
func IndexJoin(m *machine.Machine, kind index.Kind, tables datagen.JoinTables) JoinOutcome {
	r, s := tables.R, tables.S
	rAddr, setupR := LoadRecords(m, r)
	sAddr, setupS := LoadRecords(m, s)
	_ = rAddr
	m.ResetCounters()

	threads := m.Config().Threads
	idx := index.New(kind)
	build := m.Run(1, func(t *machine.Thread) {
		for i := range r {
			t.Read(rAddr+uint64(i)*recordBytes, recordBytes)
			idx.Insert(t, r[i].Key, r[i].Val)
		}
	})

	// Index lookups are read-only on the pre-built index; results
	// accumulate per thread.
	outs := make([]vec, threads)
	perMatches := make([]uint64, threads)
	perChecksum := make([]uint64, threads)
	probe := m.Run(threads, func(t *machine.Thread) {
		n := len(s)
		lo, hi := n*t.ID()/threads, n*(t.ID()+1)/threads
		out := &outs[t.ID()]
		for i := lo; i < hi; i++ {
			t.Read(sAddr+uint64(i)*recordBytes, recordBytes)
			if rv, ok := idx.Lookup(t, s[i].Key); ok {
				out.push(t)
				perMatches[t.ID()]++
				perChecksum[t.ID()] += rv + s[i].Val
			}
		}
	})
	var matches, checksum uint64
	for i := 0; i < threads; i++ {
		matches += perMatches[i]
		checksum += perChecksum[i]
	}

	res := probe
	res.WallCycles += build.WallCycles
	return JoinOutcome{
		Outcome: Outcome{
			Result:      res,
			SetupCycles: setupR + setupS,
			Matches:     matches,
			Checksum:    checksum,
		},
		BuildCycles: build.WallCycles,
		ProbeCycles: probe.WallCycles,
	}
}
