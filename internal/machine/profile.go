package machine

import (
	"fmt"

	"repro/internal/topology"
)

// Bucket classifies where a charged cycle went. Every cycle the simulator
// charges to a thread — compute, cache and DRAM stalls, kernel daemon
// taxes, allocator waits, scheduler penalties — lands in exactly one
// bucket, so a run's per-thread bucket sums reconstruct its wall time
// (the accounting-completeness invariant tested in profile_test.go).
type Bucket int

const (
	// BucketCompute is pure CPU work charged via Thread.Charge.
	BucketCompute Bucket = iota
	// BucketL1Hit is time served from the core-private L1.
	BucketL1Hit
	// BucketLLCHit is time served from the node's last-level cache.
	BucketLLCHit
	// BucketDRAMLocal is DRAM time served by the accessing thread's node.
	BucketDRAMLocal
	// BucketDRAMRemote1 is DRAM time served one interconnect hop away.
	BucketDRAMRemote1
	// BucketDRAMRemote2 is DRAM time served two hops away.
	BucketDRAMRemote2
	// BucketDRAMRemote3 is DRAM time served three or more hops away.
	BucketDRAMRemote3
	// BucketPageWalk is page-table walk time after TLB misses.
	BucketPageWalk
	// BucketFaultService is minor-fault service time (demand zeroing,
	// including the extra THP fault-path zeroing).
	BucketFaultService
	// BucketCoherence is cache-to-cache transfer time for lines dirty in
	// another node's cache.
	BucketCoherence
	// BucketAllocWork is allocator time excluding lock waits (size-class
	// lookup, refills, slab carving).
	BucketAllocWork
	// BucketAllocStall is allocator lock-contention wait time.
	BucketAllocStall
	// BucketThreadMigration is the reschedule penalty of thread moves.
	BucketThreadMigration
	// BucketPageMigration is page-copy time charged when AutoNUMA moves a
	// page toward its accessor.
	BucketPageMigration
	// BucketTLBShootdown is the shootdown stall paid by every running
	// thread when a mapped page migrates.
	BucketTLBShootdown
	// BucketAutoNUMAScan is the balancer's sampling tax: hint faults and
	// scan stalls charged each pass.
	BucketAutoNUMAScan
	// BucketTHPWork is hugepage management: khugepaged collapses, splits
	// (including pre-migration and unmap splits) and the kernel's THP
	// bookkeeping churn on allocator page returns.
	BucketTHPWork
	// BucketTimeshare is wall inflation from hardware-context
	// oversubscription: time spent runnable but descheduled while another
	// thread shared the context.
	BucketTimeshare

	// NumBuckets is the bucket count; Buckets() lists them in order.
	NumBuckets
)

// Buckets lists every attribution bucket in stable order.
func Buckets() []Bucket {
	bs := make([]Bucket, NumBuckets)
	for i := range bs {
		bs[i] = Bucket(i)
	}
	return bs
}

// String returns the bucket's stable name, used by the JSONL schema, the
// breakdown tables and the folded-stack exporter.
func (b Bucket) String() string {
	switch b {
	case BucketCompute:
		return "compute"
	case BucketL1Hit:
		return "l1_hit"
	case BucketLLCHit:
		return "llc_hit"
	case BucketDRAMLocal:
		return "dram_local"
	case BucketDRAMRemote1:
		return "dram_remote_1hop"
	case BucketDRAMRemote2:
		return "dram_remote_2hop"
	case BucketDRAMRemote3:
		return "dram_remote_3hop"
	case BucketPageWalk:
		return "page_walk"
	case BucketFaultService:
		return "fault_service"
	case BucketCoherence:
		return "coherence"
	case BucketAllocWork:
		return "alloc_work"
	case BucketAllocStall:
		return "alloc_stall"
	case BucketThreadMigration:
		return "thread_migration"
	case BucketPageMigration:
		return "page_migration"
	case BucketTLBShootdown:
		return "tlb_shootdown"
	case BucketAutoNUMAScan:
		return "autonuma_scan"
	case BucketTHPWork:
		return "thp_work"
	case BucketTimeshare:
		return "timeshare"
	default:
		return fmt.Sprintf("bucket(%d)", int(b))
	}
}

// dramBucket maps an interconnect hop distance to its DRAM bucket.
func dramBucket(hops int) Bucket {
	switch hops {
	case 0:
		return BucketDRAMLocal
	case 1:
		return BucketDRAMRemote1
	case 2:
		return BucketDRAMRemote2
	default:
		return BucketDRAMRemote3
	}
}

// ThreadBreakdown is one thread's cycle attribution: WallCycles is the
// thread's accumulated wall time across the profiled runs, Buckets the
// cycles charged per Bucket (indexed by the Bucket constants). The bucket
// sum equals WallCycles up to floating-point association error.
type ThreadBreakdown struct {
	Thread     int       `json:"thread"`
	WallCycles float64   `json:"wall_cycles"`
	Buckets    []float64 `json:"buckets"`
}

// NodeBreakdown is one NUMA node's cycle attribution: cycles charged to
// threads while they were running on this node.
type NodeBreakdown struct {
	Node    int       `json:"node"`
	Buckets []float64 `json:"buckets"`
}

// Profile is a machine's accumulated cycle attribution: where every
// charged cycle went, per thread and per NUMA node, plus a numastat-style
// access matrix. Obtain one from Machine.Profile after Observe with Profile.
type Profile struct {
	// BucketNames gives the Buckets index order, so a serialized profile
	// is self-describing.
	BucketNames []string `json:"bucket_names"`
	// Threads has one entry per simulated thread id that ran.
	Threads []ThreadBreakdown `json:"threads"`
	// Nodes has one entry per NUMA node.
	Nodes []NodeBreakdown `json:"nodes"`
	// Matrix[i][j] counts DRAM accesses issued by threads running on node
	// i that were served by memory on node j (diagonal = local accesses).
	Matrix [][]uint64 `json:"matrix"`
}

// Totals sums the per-thread buckets into one machine-wide breakdown.
func (p *Profile) Totals() []float64 {
	tot := make([]float64, NumBuckets)
	for i := range p.Threads {
		for b, c := range p.Threads[i].Buckets {
			tot[b] += c
		}
	}
	return tot
}

// TotalsByName returns the machine-wide breakdown keyed by bucket name,
// the shape the JSONL records embed.
func (p *Profile) TotalsByName() map[string]float64 {
	out := make(map[string]float64, NumBuckets)
	for b, c := range p.Totals() {
		if c != 0 {
			out[Bucket(b).String()] = c
		}
	}
	return out
}

// WallCycles sums every thread's accumulated wall time.
func (p *Profile) WallCycles() float64 {
	var w float64
	for i := range p.Threads {
		w += p.Threads[i].WallCycles
	}
	return w
}

// MatrixRowSums returns per-source-node DRAM access totals (row sums of
// the access matrix).
func (p *Profile) MatrixRowSums() []uint64 {
	out := make([]uint64, len(p.Matrix))
	for i, row := range p.Matrix {
		for _, n := range row {
			out[i] += n
		}
	}
	return out
}

// profiler is the live accumulation state behind Machine.Profile. It only
// observes: recording never touches the RNG or the cycle arithmetic, so a
// profiled run is byte-identical to an unprofiled one.
type profiler struct {
	n       int // NUMA nodes
	threads []threadProf
	nodes   [][NumBuckets]float64
	matrix  []uint64 // n*n, row-major [from][to]
}

type threadProf struct {
	buckets [NumBuckets]float64
	wall    float64
}

func newProfiler(nodes int) *profiler {
	return &profiler{
		n:      nodes,
		nodes:  make([][NumBuckets]float64, nodes),
		matrix: make([]uint64, nodes*nodes),
	}
}

// thread returns thread id's accumulator, growing the table as needed.
func (pr *profiler) thread(id int) *threadProf {
	for id >= len(pr.threads) {
		pr.threads = append(pr.threads, threadProf{})
	}
	return &pr.threads[id]
}

// add charges c cycles to bucket b for thread id running on node.
func (pr *profiler) add(id int, node topology.NodeID, b Bucket, c float64) {
	if c == 0 {
		return
	}
	pr.thread(id).buckets[b] += c
	pr.nodes[node][b] += c
}

// access records one accessLine's component costs in a single call (the
// hot path pays one nil check, then this).
func (pr *profiler) access(id int, node topology.NodeID, faultC, walkC, cohC float64, hit Bucket, hitC float64) {
	tp := pr.thread(id)
	np := &pr.nodes[node]
	if faultC != 0 {
		tp.buckets[BucketFaultService] += faultC
		np[BucketFaultService] += faultC
	}
	if walkC != 0 {
		tp.buckets[BucketPageWalk] += walkC
		np[BucketPageWalk] += walkC
	}
	if cohC != 0 {
		tp.buckets[BucketCoherence] += cohC
		np[BucketCoherence] += cohC
	}
	tp.buckets[hit] += hitC
	np[hit] += hitC
}

// dram records a DRAM access in the node matrix.
func (pr *profiler) dram(from, to topology.NodeID) {
	pr.matrix[int(from)*pr.n+int(to)]++
}

// snapshot builds the exported Profile.
func (pr *profiler) snapshot() *Profile {
	p := &Profile{
		BucketNames: make([]string, NumBuckets),
		Threads:     make([]ThreadBreakdown, len(pr.threads)),
		Nodes:       make([]NodeBreakdown, pr.n),
		Matrix:      make([][]uint64, pr.n),
	}
	for b := range p.BucketNames {
		p.BucketNames[b] = Bucket(b).String()
	}
	for i := range pr.threads {
		tb := ThreadBreakdown{
			Thread:     i,
			WallCycles: pr.threads[i].wall,
			Buckets:    make([]float64, NumBuckets),
		}
		copy(tb.Buckets, pr.threads[i].buckets[:])
		p.Threads[i] = tb
	}
	for n := 0; n < pr.n; n++ {
		nb := NodeBreakdown{Node: n, Buckets: make([]float64, NumBuckets)}
		copy(nb.Buckets, pr.nodes[n][:])
		p.Nodes[n] = nb
		row := make([]uint64, pr.n)
		copy(row, pr.matrix[n*pr.n:(n+1)*pr.n])
		p.Matrix[n] = row
	}
	return p
}

// Profile returns the accumulated cycle attribution since Observe attached
// the profiler (or ResetProfile), nil when profiling is off. The returned
// value is a snapshot; continuing the run does not mutate it.
func (m *Machine) Profile() *Profile {
	if m.prof == nil {
		return nil
	}
	return m.prof.snapshot()
}

// ThreadBuckets returns a copy of one thread's accumulated per-bucket
// cycles (indexed by the Bucket constants), nil when profiling is off.
// Unlike Profile it does not materialize node breakdowns or the access
// matrix, so callers can difference it around short work windows (e.g. one
// served request) cheaply. A thread that has not charged anything yet reads
// as all zeros; the call never mutates the profiler.
func (m *Machine) ThreadBuckets(id int) []float64 {
	if m.prof == nil {
		return nil
	}
	out := make([]float64, NumBuckets)
	if id >= 0 && id < len(m.prof.threads) {
		copy(out, m.prof.threads[id].buckets[:])
	}
	return out
}

// ResetProfile zeroes the accumulated attribution (between workload
// phases), keeping profiling on. No-op when profiling is off.
func (m *Machine) ResetProfile() {
	if m.prof != nil {
		m.prof = newProfiler(m.Spec.Topo.Nodes())
	}
}

// profAdd charges c cycles to bucket b for thread t at its current node;
// the cold-path attribution hook (daemons, scheduler, allocator).
func (m *Machine) profAdd(t *Thread, b Bucket, c float64) {
	if m.prof == nil {
		return
	}
	m.prof.add(t.id, m.nodeOf(t.hw), b, c)
}
