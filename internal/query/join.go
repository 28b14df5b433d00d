package query

import (
	"repro/internal/datagen"
	"repro/internal/hashtable"
	"repro/internal/machine"
)

// JoinSpec describes a two-table equi-join (W3/W4): R is the primary
// (build) side, S the 16x larger foreign (probe) side.
type JoinSpec struct {
	Tables datagen.JoinTables
}

// JoinOutcome extends Outcome with the phase split the paper reports for
// index joins (build time vs join time).
type JoinOutcome struct {
	Outcome
	BuildCycles float64
	ProbeCycles float64
}

// HashJoin executes W3: a non-partitioning hash join. All threads build a
// shared hash table over R (allocation-heavy: one chain node per build
// tuple), then probe it with S, materializing matches into per-thread
// output buffers.
func HashJoin(m *machine.Machine, spec JoinSpec) JoinOutcome {
	r, s := spec.Tables.R, spec.Tables.S
	rAddr, setupR := LoadRecords(m, r)
	sAddr, setupS := LoadRecords(m, s)
	m.ResetCounters()

	threads := m.Config().Threads
	var table *hashtable.Table
	create := m.Run(threads, func(t *machine.Thread) {
		if t.ID() == 0 {
			table = hashtable.New(t, len(r)*2)
		}
	})

	build := m.Run(threads, func(t *machine.Thread) {
		n := len(r)
		lo, hi := n*t.ID()/threads, n*(t.ID()+1)/threads
		for i := lo; i < hi; i++ {
			t.Read(rAddr+uint64(i)*recordBytes, recordBytes)
			table.Put(t, r[i].Key, uint32(i))
		}
	})

	// The probe phase only reads the table's Go-side state (the build is
	// complete) and accumulates into per-thread slots.
	outs := make([]vec, threads)
	perMatches := make([]uint64, threads)
	perChecksum := make([]uint64, threads)
	probe := m.Run(threads, func(t *machine.Thread) {
		n := len(s)
		lo, hi := n*t.ID()/threads, n*(t.ID()+1)/threads
		out := &outs[t.ID()]
		for i := lo; i < hi; i++ {
			t.Read(sAddr+uint64(i)*recordBytes, recordBytes)
			if ri, ok := table.Get(t, s[i].Key); ok {
				// Materialize the joined tuple into the thread-local
				// output buffer.
				out.push(t)
				perMatches[t.ID()]++
				perChecksum[t.ID()] += r[ri].Val + s[i].Val
			}
		}
	})
	var matches, checksum uint64
	for i := 0; i < threads; i++ {
		matches += perMatches[i]
		checksum += perChecksum[i]
	}

	res := probe
	res.WallCycles += create.WallCycles + build.WallCycles
	return JoinOutcome{
		Outcome: Outcome{
			Result:      res,
			SetupCycles: setupR + setupS,
			Matches:     matches,
			Checksum:    checksum,
		},
		BuildCycles: create.WallCycles + build.WallCycles,
		ProbeCycles: probe.WallCycles,
	}
}

// ReferenceJoin computes the join result in plain Go, for tests.
func ReferenceJoin(tables datagen.JoinTables) (matches, checksum uint64) {
	byKey := make(map[uint64]uint64, len(tables.R))
	for _, r := range tables.R {
		byKey[r.Key] = r.Val
	}
	for _, s := range tables.S {
		if rv, ok := byKey[s.Key]; ok {
			matches++
			checksum += rv + s.Val
		}
	}
	return matches, checksum
}
