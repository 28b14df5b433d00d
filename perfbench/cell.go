package main

import (
	"encoding/binary"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/alloc"
	"repro/internal/machine"
	"repro/internal/xrand"
)

// workload is one benchmark input set. setup builds the inputs and
// reference answers from the seed (rep numbers the set-up repetitions) and
// returns the cells of one pass; a run times passes of those cells.
type workload struct {
	name  string
	setup func(tr *tracer, z sizes, seed uint64, rep int) ([]cell, error)
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []workload {
	return []workload{
		{"paper-grid", setupGrid},
		{"tune-sweep", setupSweep},
		{"serve-observed", setupServe},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// cell is one closed-loop operation group of a pass: it runs its layer
// calls, checks their outputs and records what they simulated in o.
type cell struct {
	name string
	run  func(tr *tracer, o *cellOut)
}

// cellOut is what one cell execution produced: its operations and
// failures, a digest of its simulated output, and its exact counts.
type cellOut struct {
	name   string
	wall   float64 // host seconds of the cell's run
	ops    int
	failed int
	h      digester
	digest uint64 // h's sum, taken when the cell finishes
	counts counts
	// verify, when set, is an expensive output check run only in the
	// first pass, outside the timed wall; false fails the cell.
	verify func() bool
}

func newCellOut(name string) *cellOut {
	o := &cellOut{name: name, counts: counts{}}
	o.h.str(name)
	return o
}

// check records one operation, failed unless ok.
func (o *cellOut) check(ok bool) {
	o.ops++
	if !ok {
		o.failed++
	}
}

// result folds one machine.Result into the digest and the exact counts.
func (o *cellOut) result(r machine.Result) {
	o.simulated(r.WallCycles, r.Counters)
	o.allocStats(r.Alloc)
}

// simulated folds simulated wall cycles and perf counters into the digest
// and the exact counts.
func (o *cellOut) simulated(wallCycles float64, c machine.Counters) {
	o.h.f64(wallCycles)
	o.h.u64(c.ThreadMigrations, c.CacheAccesses, c.CacheMisses, c.TLBMisses,
		c.LocalAccesses, c.RemoteAccesses, c.MinorFaults, c.PageMigrations,
		c.HugePromotions, c.HugeSplits)
	o.counts.add("machine.sim_gcycles", wallCycles/1e9)
	o.counts.add("cache.llc_lookups", float64(c.CacheAccesses))
	o.counts.add("cache.llc_misses", float64(c.CacheMisses))
	o.counts.add("cache.tlb_misses", float64(c.TLBMisses))
	o.counts.add("machine.thread_migrations", float64(c.ThreadMigrations))
	o.counts.add("vmm.minor_faults", float64(c.MinorFaults))
	o.counts.add("vmm.page_migrations", float64(c.PageMigrations))
	o.counts.add("vmm.huge_promotions", float64(c.HugePromotions))
	o.counts.add("vmm.huge_splits", float64(c.HugeSplits))
}

// allocStats folds an allocator model's counters into the digest and the
// exact counts.
func (o *cellOut) allocStats(s alloc.Stats) {
	o.h.u64(s.Mallocs, s.Frees, s.LiveBytes, s.PeakLiveBytes, s.SlowPaths, s.Purges)
	o.h.f64(s.LockWaitCycles)
	o.counts.add("alloc.mallocs", float64(s.Mallocs))
	o.counts.add("alloc.slow_paths", float64(s.SlowPaths))
	o.counts.add("alloc.purges", float64(s.Purges))
}

// counts holds exact per-layer counts: simulated quantities that repeat
// bit for bit for a fixed seed, whatever the host does.
type counts map[string]float64

func (c counts) add(name string, v float64) { c[name] += v }

// passCounts sums the cells' exact counts.
func passCounts(outs []*cellOut) counts {
	sum := counts{}
	for _, o := range outs {
		names := make([]string, 0, len(o.counts))
		for n := range o.counts {
			names = append(names, n)
		}
		sort.Strings(names) // fixed summation order keeps float sums exact
		for _, n := range names {
			sum.add(n, o.counts[n])
		}
	}
	return sum
}

// passDigest combines the cells' digests in pass order.
func passDigest(outs []*cellOut) uint64 {
	var h digester
	for _, o := range outs {
		h.u64(o.digest)
	}
	return h.sum()
}

// digester hashes simulated outputs (FNV-1a, 64 bit). It is a
// change detector for the simulated output, not a failure condition.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digester) write(b []byte) {
	if d.h == nil {
		d.h = fnv.New64a()
	}
	d.h.Write(b)
}

func (d *digester) u64(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.write(d.buf[:])
	}
}

func (d *digester) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.write([]byte(s))
}

// bytes folds a large blob in through its CRC-32C, which hashes far faster
// than FNV's byte loop.
func (d *digester) bytes(b []byte) {
	d.u64(uint64(len(b)), uint64(crc32.Checksum(b, castagnoli)))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (d *digester) sum() uint64 {
	if d.h == nil {
		return 0
	}
	return d.h.Sum64()
}

// Seed labels: each layer's inputs come from their own stream derived
// from the workload seed.
const (
	labelAgg uint64 = iota + 1
	labelJoin
	labelTPCH
	labelTune
	labelServe
	labelCalibrate // + set-up repetition
)

// deriveSeed returns the positive seed of one input stream.
func deriveSeed(seed, label uint64) uint64 {
	return xrand.New(seed).Derive(label).Uint64()%(1<<31) + 1
}
