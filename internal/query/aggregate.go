package query

import (
	"math"
	"slices"

	"repro/internal/datagen"
	"repro/internal/hashtable"
	"repro/internal/machine"
)

// recordBytes is the in-memory width of one (key, value) tuple.
const recordBytes = 16

// Outcome reports a workload execution: the simulator's measurement of the
// timed phases plus a checksum for correctness validation.
type Outcome struct {
	Result      machine.Result
	SetupCycles float64
	Groups      int
	Matches     uint64 // join workloads: result tuples
	Checksum    uint64
}

// LoadRecords writes recs into a fresh simulated array, single-threaded
// (the paper's datasets are generated before the measured run; under First
// Touch this places them on the loader's node, which is the central
// mechanism behind the placement-policy results). It returns the base
// address and the setup cycles.
func LoadRecords(m *machine.Machine, recs []datagen.Record) (base uint64, cycles float64) {
	res := m.Run(1, func(t *machine.Thread) {
		base = t.Malloc(uint64(len(recs)) * recordBytes)
		t.WriteRun(base, recordBytes, len(recs))
	})
	return base, res.WallCycles
}

// AggregationSpec describes an aggregation run (W1/W2).
type AggregationSpec struct {
	Records     []datagen.Record
	Cardinality int
	// Holistic selects W1 (MEDIAN over buffered values); false is W2
	// (COUNT, a running counter per group).
	Holistic bool
}

// tupleBytes is the size of one buffered tuple node in a group's chain
// (value + next pointer), individually heap-allocated as in the paper's
// holistic aggregation implementation.
const tupleBytes = 16

// group is the per-group aggregate state.
type group struct {
	creator   int    // thread that created the group (median-pass owner)
	countAddr uint64 // W2: 8-byte counter in simulated memory
	count     uint64 // W2's running count, or W1's buffered tuples
	// W1: each input tuple is buffered in its own allocation; the median
	// pass walks, reads and frees them. This is what makes W1 the paper's
	// allocation-heavy aggregation. The tuples chain through Aggregate's
	// per-record arrays in arrival order, from record first to record last.
	first, last int32
}

// Aggregate executes the hashtable-based aggregation workload and returns
// the timed result (build plus, for W1, the per-group median pass).
func Aggregate(m *machine.Machine, spec AggregationSpec) Outcome {
	dataAddr, setup := LoadRecords(m, spec.Records)
	m.ResetCounters()

	threads := m.Config().Threads
	var table *hashtable.Table
	groups := make([]*group, 0, spec.Cardinality)
	// W1's tuple chains: tupleAddr[i] is record i's buffered tuple, and
	// next[i] the record buffered after it in the same group.
	var tupleAddr []uint64
	var next []int32
	if spec.Holistic {
		tupleAddr = make([]uint64, len(spec.Records))
		next = make([]int32, len(spec.Records))
	}

	// The shared table is created by the first worker, as in the paper's
	// codelets; sizing at twice the cardinality keeps chains short.
	res := m.Run(threads, func(t *machine.Thread) {
		if t.ID() == 0 {
			table = hashtable.New(t, spec.Cardinality*2)
		}
	})
	buildAndFinalize := m.Run(threads, func(t *machine.Thread) {
		n := len(spec.Records)
		lo := n * t.ID() / threads
		hi := n * (t.ID() + 1) / threads
		for i := lo; i < hi; i++ {
			rec := spec.Records[i]
			t.Read(dataAddr+uint64(i)*recordBytes, recordBytes)
			gi, _ := table.GetOrPut(t, rec.Key, func() uint32 {
				g := &group{creator: t.ID()}
				if !spec.Holistic {
					g.countAddr = t.Malloc(8)
				}
				groups = append(groups, g)
				return uint32(len(groups) - 1)
			})
			g := groups[gi]
			t.Charge(25) // per-group latch
			if spec.Holistic {
				// Buffer the tuple for the median: one allocation per
				// input record.
				addr := t.Malloc(tupleBytes)
				tupleAddr[i] = addr
				if g.count == 0 {
					g.first = int32(i)
				} else {
					next[g.last] = int32(i)
				}
				g.last = int32(i)
				g.count++
				t.Write(addr, tupleBytes)
			} else {
				t.Read(g.countAddr, 8)
				t.Write(g.countAddr, 8)
				g.count++
			}
		}
		if spec.Holistic {
			// Second pass: medians, each thread finalizing the groups it
			// created. Under the moving-cluster input a group's tuples
			// were almost all buffered by their creator, so the pass is
			// local under First Touch — the paper's high measured LAR.
			for gi := range groups {
				g := groups[gi]
				if g.creator != t.ID() || g.count == 0 {
					continue
				}
				// Other threads may still be appending to g, so each
				// loop covers exactly the tuples buffered when it starts.
				for r, last := g.first, g.last; ; r = next[r] {
					t.Read(tupleAddr[r], tupleBytes)
					if r == last {
						break
					}
				}
				n := float64(g.count)
				t.Charge(12 * n * math.Log2(n+1)) // in-place sort
				for r, last := g.first, g.last; ; r = next[r] {
					t.Free(tupleAddr[r], tupleBytes)
					if r == last {
						break
					}
				}
			}
		}
	})

	out := Outcome{
		Result:      combine(res, buildAndFinalize),
		SetupCycles: setup,
		// table.Len counts distinct keys; the groups slice can hold
		// orphans from lost upsert races.
		Groups: table.Len(),
	}
	var vals []uint64 // one group's buffered values, reused
	for _, g := range groups {
		if !spec.Holistic {
			out.Checksum += g.count
			continue
		}
		vals = vals[:0]
		for r, k := g.first, uint64(0); k < g.count; r, k = next[r], k+1 {
			vals = append(vals, spec.Records[r].Val)
		}
		out.Checksum += medianOf(vals)
	}
	return out
}

// combine merges two phases of one measurement: wall times add (the phases
// are sequential), counters were accumulated machine-wide already.
func combine(a, b machine.Result) machine.Result {
	b.WallCycles += a.WallCycles
	return b
}

// medianOf returns the median (lower middle) of vals, used for checksums.
// It sorts vals in place.
func medianOf(vals []uint64) uint64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	return vals[(len(vals)-1)/2]
}

// ReferenceAggregate computes the same aggregate in plain Go, for tests.
func ReferenceAggregate(spec AggregationSpec) (groups int, checksum uint64) {
	byKey := map[uint64][]uint64{}
	for _, r := range spec.Records {
		byKey[r.Key] = append(byKey[r.Key], r.Val)
	}
	for _, vals := range byKey { //rangecheck:ok commutative wrapping-add checksum
		if spec.Holistic {
			checksum += medianOf(vals)
		} else {
			checksum += uint64(len(vals))
		}
	}
	return len(byKey), checksum
}
