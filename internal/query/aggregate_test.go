package query

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/hashtable"
	"repro/internal/machine"
)

// refGroup and refAggregate are the slice-based holistic aggregation that
// Aggregate's per-record tuple chains replaced, kept verbatim as the
// reference model Aggregate must match in every simulated number: each
// group appends its tuples' addresses and values to its own slices, and
// the median pass ranges over them.
type refGroup struct {
	creator   int    // thread that created the group (median-pass owner)
	countAddr uint64 // W2: 8-byte counter in simulated memory
	count     uint64
	// W1: each input tuple is buffered in its own allocation; the median
	// pass walks, reads and frees them. This is what makes W1 the paper's
	// allocation-heavy aggregation.
	tupleAddrs []uint64
	vals       []uint64
}

func refAggregate(m *machine.Machine, spec AggregationSpec) Outcome {
	dataAddr, setup := LoadRecords(m, spec.Records)
	m.ResetCounters()

	threads := m.Config().Threads
	var table *hashtable.Table
	groups := make([]*refGroup, 0, spec.Cardinality)

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
				g := &refGroup{creator: t.ID()}
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
				g.tupleAddrs = append(g.tupleAddrs, addr)
				g.vals = append(g.vals, rec.Val)
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
				if g.creator != t.ID() {
					continue
				}
				if len(g.tupleAddrs) == 0 {
					continue
				}
				for _, addr := range g.tupleAddrs {
					t.Read(addr, tupleBytes)
				}
				n := float64(len(g.tupleAddrs))
				t.Charge(12 * n * math.Log2(n+1)) // in-place sort
				for _, addr := range g.tupleAddrs {
					t.Free(addr, tupleBytes)
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
	for _, g := range groups {
		if spec.Holistic {
			out.Checksum += refMedianOf(g.vals)
		} else {
			out.Checksum += g.count
		}
	}
	return out
}

// refMedianOf returns the median (lower middle) of vals, used for checksums.
func refMedianOf(vals []uint64) uint64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

func TestAggregateMatchesReference(t *testing.T) {
	// Aggregate's tuple chains change host bookkeeping only: on every
	// machine, under the default and the tuned configuration, W1 and W2
	// must reproduce the slice-based reference's outcome exactly. Under
	// the moving-cluster input other threads keep appending to groups
	// their creators are already finalizing, which is what pins the
	// median pass's read and free ranges.
	recs := datagen.MovingCluster(20000, 2000, 1)
	specs := []func() machine.Spec{machine.SpecA, machine.SpecB, machine.SpecC, machine.SpecD, machine.SpecE}
	for _, spec := range specs {
		sp := spec()
		threads := sp.HardwareThreads()
		for _, cfg := range []struct {
			name string
			cfg  machine.RunConfig
		}{
			{"default", machine.DefaultConfig(threads)},
			{"tuned", machine.TunedConfig(threads)},
		} {
			for _, holistic := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/holistic=%v", sp.Name, cfg.name, holistic)
				agg := AggregationSpec{Records: recs, Cardinality: 2000, Holistic: holistic}
				run := func(f func(*machine.Machine, AggregationSpec) Outcome) Outcome {
					m := machine.New(sp)
					m.Configure(cfg.cfg)
					return f(m, agg)
				}
				got, want := run(Aggregate), run(refAggregate)
				if got != want {
					t.Errorf("%s: Aggregate diverges from the reference:\n got %+v\nwant %+v", name, got, want)
				}
			}
		}
	}
}
