package numaop

import (
	"math"
	"sort"

	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/query"
)

// recordBytes is the in-memory width of one (key, value) tuple, matching
// internal/query's layout so MPSM and HashJoin charge identical traffic
// per tuple touched.
const recordBytes = 16

// Work charges for the phases' CPU-side costs, alongside the memory
// traffic the access calls charge. The sort constant matches the
// repository's in-place sort idiom (12·n·log2(n+1), see query.Aggregate).
const (
	sortCyclesPerCmp    = 12 // in-place run sort
	partitionCyclesPer  = 3  // range computation + scatter bookkeeping
	kwayCyclesPerElem   = 4  // heap pop/push per element, scaled by log2(ways)
	mergeCyclesPerElem  = 2  // final linear merge-join pointer advance
	searchProbeOverhead = 8  // branch + compare around each binary-search probe
)

// MPSMJoin executes the massively-parallel sort-merge join of Albutiu et
// al. (arXiv:1207.0145) over the same tables HashJoin consumes, with the
// same result contract (match count, checksum over r.Val+s.Val).
//
// Structure, per the paper, with W = config threads as workers:
//
//	setup   — both tables are loaded into per-worker chunks (ChunkedColumn,
//	          one chunk per worker, each first-touched by its worker: under
//	          sparse pinning chunk w lands on node w%nodes; under OS-default
//	          placement the workers migrate and the layout decays — which is
//	          exactly the sensitivity the numaware experiment measures).
//	phase 1 — each worker sorts its R chunk in place: a NUMA-local run.
//	          R runs are never repartitioned; they stay on their node.
//	phase 2 — each worker range-partitions its S chunk: one pass computing
//	          each tuple's target range p = key·W/K and scattering into
//	          per-target staging buffers (local writes).
//	phase 3 — worker p gathers its S range: one sequential ReadRun per
//	          remote staging buffer, written into a worker-local partition
//	          (first touch), then sorted in place.
//	phase 4 — merge join: worker p visits every R run (staggered start
//	          (p+k)%W so workers fan out over different nodes), locates its
//	          key range inside the sorted run with O(log n) point probes,
//	          then scans the matching segment with ONE batched ReadRun —
//	          remote accesses are sequential by construction, never
//	          per-element. The W segments are k-way merged against the
//	          local sorted S partition in a single pass, and matches are
//	          materialized into a worker-local output buffer.
//
// BuildCycles covers phases 1–3 (sort + partition + gather), ProbeCycles
// phase 4 (merge), so JoinOutcome's phase-split invariant holds by
// construction: BuildCycles + ProbeCycles == Result.WallCycles.
func MPSMJoin(m *machine.Machine, spec query.JoinSpec) query.JoinOutcome {
	r, s := spec.Tables.R, spec.Tables.S
	w := m.Config().Threads
	if w < 1 {
		w = 1
	}

	// Key-range metadata (plain Go: partition bounds are computed from the
	// table statistics the generator fixes, not from simulated reads).
	var maxKey uint64
	for _, rec := range r {
		if rec.Key > maxKey {
			maxKey = rec.Key
		}
	}
	for _, rec := range s {
		if rec.Key > maxKey {
			maxKey = rec.Key
		}
	}
	k := maxKey + 1
	// loKey[p] is the smallest key belonging to range p; range p covers
	// [loKey[p], loKey[p+1]). Derived from target(key) = key·W/K.
	loKey := make([]uint64, w+1)
	for p := 0; p <= w; p++ {
		loKey[p] = (uint64(p)*k + uint64(w) - 1) / uint64(w)
	}
	loKey[w] = k

	rCol := NewChunkedColumn(recordBytes, len(r), w)
	sCol := NewChunkedColumn(recordBytes, len(s), w)

	// Every phase of MPSM confines cross-worker interaction to the
	// simulated memory API: the Go-side mirrors are indexed by worker id
	// (writes touch only the writer's slot) and read only the previous
	// phase's output.
	//
	// Setup (untimed, like query.LoadRecords): every worker allocates and
	// first-touches its own chunk of both tables.
	setupRes := m.Run(w, func(t *machine.Thread) {
		id := t.ID()
		for _, col := range []*ChunkedColumn{rCol, sCol} {
			if id >= col.Chunks() {
				continue
			}
			lo, hi := col.ChunkRange(id)
			if hi == lo {
				continue
			}
			col.SetBase(id, t.Malloc(col.ChunkBytes(id)))
			col.WriteRange(t, lo, hi)
		}
	})
	m.ResetCounters()

	// Go-side mirrors of the simulated chunks. runR[w] is worker w's R run
	// (sorted in phase 1); sPart[p] is worker p's gathered S range.
	runR := make([][]datagen.Record, w)
	for id := 0; id < rCol.Chunks(); id++ {
		lo, hi := rCol.ChunkRange(id)
		runR[id] = append([]datagen.Record(nil), r[lo:hi]...)
	}

	// Phase 1: NUMA-local run sorts of R.
	sortR := m.Run(w, func(t *machine.Thread) {
		id := t.ID()
		if id >= rCol.Chunks() {
			return
		}
		lo, hi := rCol.ChunkRange(id)
		n := float64(hi - lo)
		if n == 0 {
			return
		}
		rCol.ReadRange(t, lo, hi)
		t.Charge(sortCyclesPerCmp * n * math.Log2(n+1))
		rCol.WriteRange(t, lo, hi)
		sortRun(runR[id])
	})

	// Phase 2: range-partition S. stage[w][p] holds worker w's tuples for
	// range p: Go mirror, staging base address, all written locally by w.
	stageTuples := make([][][]datagen.Record, w)
	stageAddr := make([][]uint64, w)
	partS := m.Run(w, func(t *machine.Thread) {
		id := t.ID()
		stageTuples[id] = make([][]datagen.Record, w)
		stageAddr[id] = make([]uint64, w)
		if id >= sCol.Chunks() {
			return
		}
		lo, hi := sCol.ChunkRange(id)
		if hi == lo {
			return
		}
		sCol.ReadRange(t, lo, hi)
		t.Charge(partitionCyclesPer * float64(hi-lo))
		buckets := stageTuples[id]
		for _, rec := range s[lo:hi] {
			p := int(rec.Key * uint64(w) / k)
			buckets[p] = append(buckets[p], rec)
		}
		for p := 0; p < w; p++ {
			if cnt := len(buckets[p]); cnt > 0 {
				base := t.Malloc(uint64(cnt) * recordBytes)
				stageAddr[id][p] = base
				t.WriteRun(base, recordBytes, cnt)
			}
		}
	})

	// Phase 3: exchange. Worker p pulls its range from every staging
	// buffer — each pull ONE sequential ReadRun (remote when the producer
	// ran elsewhere) — into a local first-touched partition, then sorts.
	sPart := make([][]datagen.Record, w)
	partAddr := make([]uint64, w)
	gather := m.Run(w, func(t *machine.Thread) {
		p := t.ID()
		total := 0
		for src := 0; src < w; src++ {
			total += len(stageTuples[src][p])
		}
		if total == 0 {
			return
		}
		partAddr[p] = t.Malloc(uint64(total) * recordBytes)
		part := make([]datagen.Record, 0, total)
		for i := 0; i < w; i++ {
			src := (p + i) % w
			tuples := stageTuples[src][p]
			if len(tuples) == 0 {
				continue
			}
			t.ReadRun(stageAddr[src][p], recordBytes, len(tuples))
			part = append(part, tuples...)
			t.Free(stageAddr[src][p], uint64(len(tuples))*recordBytes)
		}
		t.WriteRun(partAddr[p], recordBytes, total)
		n := float64(total)
		t.Charge(sortCyclesPerCmp * n * math.Log2(n+1))
		sortRun(part)
		sPart[p] = part
	})

	// Phase 4: merge join, matches accumulated per worker.
	perMatches := make([]uint64, w)
	perChecksum := make([]uint64, w)
	merge := m.Run(w, func(t *machine.Thread) {
		p := t.ID()
		part := sPart[p]
		if len(part) == 0 {
			return
		}
		outBase := t.Malloc(uint64(len(part)) * recordBytes)

		// Visit every R run, staggered so concurrent workers start on
		// different nodes; collect each run's segment for range p.
		var segs [][]datagen.Record
		segTotal := 0
		for i := 0; i < w; i++ {
			src := (p + i) % w
			run := runR[src]
			if len(run) == 0 {
				continue
			}
			base, _ := rCol.ChunkRange(src)
			lb := lowerBound(t, rCol, base, run, loKey[p])
			ub := lowerBound(t, rCol, base, run, loKey[p+1])
			if ub == lb {
				continue
			}
			rCol.ReadRange(t, base+lb, base+ub)
			segs = append(segs, run[lb:ub])
			segTotal += ub - lb
		}

		// K-way merge of the segments (R keys are globally unique, so the
		// merged stream is strictly sorted), then one linear merge-join
		// pass against the sorted local S partition.
		t.Charge(kwayCyclesPerElem * float64(segTotal) * math.Log2(float64(len(segs))+1))
		merged := mergeRuns(segs, segTotal)
		t.Charge(mergeCyclesPerElem * float64(segTotal+len(part)))
		nOut := 0
		ri := 0
		for _, sv := range part {
			for ri < len(merged) && merged[ri].Key < sv.Key {
				ri++
			}
			if ri < len(merged) && merged[ri].Key == sv.Key {
				perMatches[p]++
				perChecksum[p] += merged[ri].Val + sv.Val
				nOut++
			}
		}
		if nOut > 0 {
			t.WriteRun(outBase, recordBytes, nOut)
		}
	})

	var matches, checksum uint64
	for p := 0; p < w; p++ {
		matches += perMatches[p]
		checksum += perChecksum[p]
	}
	res := merge
	res.WallCycles += sortR.WallCycles + partS.WallCycles + gather.WallCycles
	return query.JoinOutcome{
		Outcome: query.Outcome{
			Result:      res,
			SetupCycles: setupRes.WallCycles,
			Matches:     matches,
			Checksum:    checksum,
		},
		BuildCycles: sortR.WallCycles + partS.WallCycles + gather.WallCycles,
		ProbeCycles: merge.WallCycles,
	}
}

// lowerBound binary-searches the sorted run for the first index whose key
// is >= key, charging one point probe per step — O(log n) point accesses
// to locate a range, after which the segment is scanned with one batched
// ReadRun. base is the run's first global row in col.
func lowerBound(t *machine.Thread, col *ChunkedColumn, base int, run []datagen.Record, key uint64) int {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		t.Read(col.Addr(base+mid), recordBytes)
		t.Charge(searchProbeOverhead)
		if run[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sortRun sorts records by (Key, Val) — a total order, so the result is
// deterministic even though sort.Slice is unstable.
func sortRun(recs []datagen.Record) {
	sort.Slice(recs, func(i, j int) bool { return less(recs[i], recs[j]) })
}

// mergeRuns merges sorted runs into one sorted slice of capacity total.
func mergeRuns(segs [][]datagen.Record, total int) []datagen.Record {
	switch len(segs) {
	case 0:
		return nil
	case 1:
		return segs[0]
	}
	out := make([]datagen.Record, 0, total)
	idx := make([]int, len(segs))
	for len(out) < total {
		best := -1
		for i, seg := range segs {
			if idx[i] >= len(seg) {
				continue
			}
			if best == -1 || less(seg[idx[i]], segs[best][idx[best]]) {
				best = i
			}
		}
		out = append(out, segs[best][idx[best]])
		idx[best]++
	}
	return out
}

func less(a, b datagen.Record) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Val < b.Val
}
