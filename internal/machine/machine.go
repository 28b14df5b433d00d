// Package machine is the NUMA hardware simulator: it composes a topology,
// simulated virtual memory, per-node last-level caches, per-thread L1
// caches and TLBs, a cooperative deterministic thread scheduler with OS
// migration behaviour, the kernel daemons the paper studies (AutoNUMA load
// balancing and Transparent Hugepages), and a pluggable memory allocator
// model.
//
// Workloads run as bodies over simulated Threads; every memory access walks
// the TLB -> L1 -> LLC -> DRAM path and is charged cycles that reflect the
// machine's NUMA latencies and the current memory-controller and
// interconnect contention. Threads advance in deterministic rounds of one
// quantum each, node group by node group, one quantum at a time on the
// host. A Run returns wall cycles (the slowest thread's wall time) and the
// perf-counter profile the paper reports.
package machine

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vmm"
	"repro/internal/xrand"
)

// Placement is the thread placement strategy of Table IV.
type Placement int

const (
	// PlaceNone leaves threads to the OS scheduler, which migrates them.
	PlaceNone Placement = iota
	// PlaceSparse spreads threads across NUMA nodes first (maximizing
	// memory bandwidth), then across cores within a node.
	PlaceSparse
	// PlaceDense packs threads onto as few nodes as possible.
	PlaceDense
)

// String returns the paper's name for the strategy.
func (p Placement) String() string {
	switch p {
	case PlaceNone:
		return "None"
	case PlaceSparse:
		return "Sparse"
	case PlaceDense:
		return "Dense"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// RunConfig selects one point of the paper's parameter space (Table IV).
type RunConfig struct {
	Threads       int
	Placement     Placement
	Policy        vmm.Policy
	PreferredNode topology.NodeID
	Allocator     string // allocator name; "" means ptmalloc (system default)
	AutoNUMA      bool
	THP           bool
	Seed          uint64
}

// DefaultConfig returns the out-of-the-box OS configuration the paper
// measures against: OS-scheduled threads, First Touch placement, ptmalloc,
// AutoNUMA and THP enabled.
func DefaultConfig(threads int) RunConfig {
	return RunConfig{
		Threads:   threads,
		Placement: PlaceNone,
		Policy:    vmm.FirstTouch,
		Allocator: "ptmalloc",
		AutoNUMA:  true,
		THP:       true,
		Seed:      1,
	}
}

// TunedConfig returns the paper's recommended configuration (Figure 10):
// Sparse affinity, Interleave placement, AutoNUMA and THP off, tbbmalloc.
func TunedConfig(threads int) RunConfig {
	return RunConfig{
		Threads:   threads,
		Placement: PlaceSparse,
		Policy:    vmm.Interleave,
		Allocator: "tbbmalloc",
		AutoNUMA:  false,
		THP:       false,
		Seed:      1,
	}
}

// Counters is the simulated perf-counter profile of a run (Table III).
// The json tags define the field names used by the structured results
// records (see the experiments package's JSONL schema).
type Counters struct {
	ThreadMigrations uint64 `json:"thread_migrations"`
	CacheAccesses    uint64 `json:"cache_accesses"` // LLC lookups
	CacheMisses      uint64 `json:"cache_misses"`   // LLC misses
	TLBMisses        uint64 `json:"tlb_misses"`
	LocalAccesses    uint64 `json:"local_accesses"` // DRAM accesses served locally
	RemoteAccesses   uint64 `json:"remote_accesses"`
	MinorFaults      uint64 `json:"minor_faults"`
	PageMigrations   uint64 `json:"page_migrations"`
	HugePromotions   uint64 `json:"huge_promotions"`
	HugeSplits       uint64 `json:"huge_splits"`
}

// LAR returns the local access ratio: local / (local + remote).
func (c Counters) LAR() float64 {
	total := c.LocalAccesses + c.RemoteAccesses
	if total == 0 {
		return 0
	}
	return float64(c.LocalAccesses) / float64(total)
}

// Result reports a completed Run.
type Result struct {
	WallCycles float64 // slowest thread's wall time
	Counters   Counters
	Alloc      alloc.Stats
	RSSBytes   uint64 // simulated resident set at the end of the run
}

// Seconds converts wall cycles to seconds at the machine's clock.
func (m *Machine) Seconds(cycles float64) float64 {
	return cycles / (m.Spec.FreqGHz * 1e9)
}

// Machine is one simulated NUMA system. Create with New, configure with
// Configure, and execute workload phases with Run. A Machine's memory and
// caches persist across Runs so multi-phase workloads (build then probe)
// keep their state; use ResetCounters between phases to scope profiles.
type Machine struct {
	Spec  Spec
	P     Params
	Mem   *vmm.Memory
	Alloc alloc.Allocator

	cfg RunConfig
	rng *xrand.Rand

	// Line geometry, precomputed from Spec.LineSize (a power of two) so the
	// access path shifts instead of dividing.
	lineSize  uint64
	lineShift uint

	llc []*cache.Cache

	hwThreads int
	hwLoad    []int

	// Contention state, recomputed on a window of DRAM accesses.
	dramWindow  []float64
	windowTotal float64
	remoteWin   float64
	nodeMult    []float64
	linkMult    float64

	// writerDir is a compact last-writer directory for cache lines: a
	// direct-mapped table of (line-tag-check | writer node) entries used
	// to charge cache-to-cache transfers when a thread touches a line
	// another node wrote (false/true sharing through shared allocators
	// and tables). dirMark stamps each entry with the sequence number of
	// the last group turn that logged it; dirSeq is the current turn's
	// (see round.go).
	writerDir []uint32
	dirMark   []uint32
	dirSeq    uint32

	// Access samples feeding the AutoNUMA daemon: vpn -> last accessor.
	samples     map[uint64]sampleEntry
	clock       float64
	nextBalance float64
	nextTHPScan float64

	active  int // threads still running
	current *Thread

	// Round-based scheduler state (see round.go): one reusable group
	// shell per node, and the current round's non-empty groups.
	groupPool []*schedGroup
	groups    []*schedGroup

	counters Counters
	migRate  float64 // per-scheduling-event migration probability (PlaceNone)

	// Observability: the event sink (nil when tracing is off), the
	// periodic counter-snapshot series, and the span-collection marker
	// harnesses read via SpansEnabled; see trace.go and observe.go.
	trace     trace.Sink
	snapEvery float64
	nextSnap  float64
	snaps     []Snapshot
	spans     bool

	// Cycle attribution (nil when profiling is off); see profile.go.
	// pendingLockWait accumulates lock-contention waits reported by the
	// allocator hook during one Malloc/Free, so the caller can split the
	// returned cost into stall and work.
	prof            *profiler
	pendingLockWait float64

	// Placement daemon (nil when detached); see observe.go. daemonThreads
	// is the parked thread set during a daemon window (nil outside one,
	// which is how the Actuator enforces its scope); threadNodeAcc is the
	// per-thread x per-node DRAM access table Telemetry exposes, grown on
	// demand and accumulated only while a daemon is attached.
	daemon        func(*Telemetry, Actuator)
	daemonPeriod  float64
	nextDaemon    float64
	daemonThreads []*Thread
	threadNodeAcc [][]uint64
}

type sampleEntry struct {
	thread int
	node   topology.NodeID
	hits   int // consecutive samples by the same thread
}

// New builds a machine from a spec with the default configuration attached.
func New(spec Spec) *Machine {
	m := &Machine{
		Spec:      spec,
		P:         spec.Params,
		Mem:       vmm.New(spec.Topo, spec.MemPerNodeBytes),
		hwThreads: spec.HardwareThreads(),
	}
	if spec.LineSize <= 0 || spec.LineSize&(spec.LineSize-1) != 0 {
		panic(fmt.Sprintf("machine: LineSize %d is not a power of two", spec.LineSize))
	}
	m.lineSize = uint64(spec.LineSize)
	m.lineShift = uint(bits.TrailingZeros64(m.lineSize))
	m.llc = make([]*cache.Cache, spec.Topo.Nodes())
	for i := range m.llc {
		m.llc[i] = cache.New(spec.LLCBytesPerNode/spec.LineSize, 16)
	}
	m.hwLoad = make([]int, m.hwThreads)
	m.dramWindow = make([]float64, spec.Topo.Nodes())
	m.nodeMult = make([]float64, spec.Topo.Nodes())
	for i := range m.nodeMult {
		m.nodeMult[i] = 1
	}
	m.linkMult = 1
	m.writerDir = make([]uint32, 1<<16)
	m.dirMark = make([]uint32, len(m.writerDir))
	m.samples = make(map[uint64]sampleEntry)
	m.Configure(DefaultConfig(spec.HardwareThreads()))
	return m
}

// NewA, NewB and NewC build the three paper machines.
func NewA() *Machine { return New(SpecA()) }

// NewB builds Machine B; see SpecB.
func NewB() *Machine { return New(SpecB()) }

// NewC builds Machine C; see SpecC.
func NewC() *Machine { return New(SpecC()) }

// NewD builds the chiplet extension Machine D; see SpecD.
func NewD() *Machine { return New(SpecD()) }

// NewE builds the grid-mesh extension Machine E; see SpecE.
func NewE() *Machine { return New(SpecE()) }

// Configure applies a run configuration: placement policy, allocator,
// kernel switches. Call before Run; reconfiguring between phases keeps
// memory contents but switches behaviour (as remounting OS knobs would).
func (m *Machine) Configure(cfg RunConfig) {
	if cfg.Threads <= 0 {
		cfg.Threads = m.hwThreads
	}
	if cfg.Allocator == "" {
		cfg.Allocator = "ptmalloc"
	}
	m.cfg = cfg
	m.rng = xrand.New(cfg.Seed)
	m.Mem.SetPolicy(cfg.Policy, cfg.PreferredNode)
	m.Mem.SetTHP(cfg.THP)
	m.Alloc = alloc.New(cfg.Allocator)
	m.Alloc.Attach(m, cfg.Threads)
	m.wireAllocHooks()
	m.nextBalance = m.clock + m.P.AutoNUMAPeriod
	m.nextTHPScan = m.clock + m.P.THPPeriod
	if m.daemon != nil {
		m.nextDaemon = m.clock + m.daemonPeriod
	}
	// The OS scheduler's appetite for migration varies run to run; sample
	// it log-uniformly from the configured range (Figure 3's variance).
	lo, hi := m.P.MigrateRateMin, m.P.MigrateRateMax
	u := m.rng.Float64()
	m.migRate = lo * math.Pow(hi/lo, u)
}

// Config returns the active run configuration.
func (m *Machine) Config() RunConfig { return m.cfg }

// Counters returns the profile accumulated since the last reset.
func (m *Machine) Counters() Counters {
	c := m.counters
	c.MinorFaults = m.Mem.MinorFaults
	c.PageMigrations = m.Mem.Migrations
	c.HugePromotions = m.Mem.Promotions
	c.HugeSplits = m.Mem.Splits
	return c
}

// ResetCounters zeroes the profile (between workload phases). When cycle
// attribution is on it is rescoped too, so counters, buckets and the node
// access matrix always describe the same phase.
func (m *Machine) ResetCounters() {
	m.counters = Counters{}
	m.Mem.MinorFaults = 0
	m.Mem.Migrations = 0
	m.Mem.Promotions = 0
	m.Mem.Splits = 0
	m.ResetProfile()
}

// Env implementation for the allocator models.

// Reserve implements alloc.Env.
func (m *Machine) Reserve(bytes uint64, owner topology.NodeID) vmm.Range {
	return m.Mem.Reserve(bytes, owner)
}

// UnmapRange implements alloc.Env; hugepage splits triggered by the unmap
// are charged to the thread whose allocator call caused them. With THP
// enabled, every page return additionally pays the kernel's THP
// bookkeeping (mapcount accounting, deferred-split queue) — the churn that
// makes page-returning allocators and THP a bad pairing (Figure 5c).
func (m *Machine) UnmapRange(base, bytes uint64) {
	before := m.Mem.Splits
	m.Mem.UnmapRange(base, bytes)
	if m.current == nil {
		return
	}
	if d := m.Mem.Splits - before; d > 0 {
		m.current.cycles += float64(d) * m.P.THPSplitCost
		m.profAdd(m.current, BucketTHPWork, float64(d)*m.P.THPSplitCost)
	}
	if m.cfg.THP {
		// The zone lock and deferred-split queue serialize concurrent
		// purgers, so the churn convoys with the active thread count.
		active := float64(m.active)
		if active < 1 {
			active = 1
		}
		m.current.cycles += m.P.THPChurnCycles * active
		m.profAdd(m.current, BucketTHPWork, m.P.THPChurnCycles*active)
	}
}

// Touch implements alloc.Env: eager page commitment.
func (m *Machine) Touch(base, bytes uint64, owner topology.NodeID) {
	end := base + bytes
	for a := base &^ uint64(vmm.PageSize-1); a < end; a += vmm.PageSize {
		m.Mem.Fault(a, owner)
	}
}

// Nodes implements alloc.Env.
func (m *Machine) Nodes() int { return m.Spec.Topo.Nodes() }

// coherencePenalty charges a cache-to-cache transfer when lineTag is dirty
// on another node. A read downgrades the line to shared (entry cleared); a
// write takes ownership. During a group's turn the directory shows the
// round-start state plus the group's own writes (see round.go), so
// cross-node ownership changes become visible at round granularity.
func (m *Machine) coherencePenalty(t *Thread, lineTag uint64, write bool) float64 {
	idx := lineTag & uint64(len(m.writerDir)-1)
	e := m.writerDir[idx]
	cost := 0.0
	if e != 0 && e>>8 == uint32(lineTag>>16) {
		owner := topology.NodeID(e&0xff) - 1
		if owner != t.node {
			cost = m.P.CoherenceCycles
			// Downgraded out of the owner's cache.
			m.dirWrite(t.group, idx, 0)
			if m.trace != nil {
				m.trace.Emit(trace.Event{
					Cycle:  t.cycles,
					Kind:   trace.Coherence,
					Thread: int32(t.id),
					From:   int16(owner),
					To:     int16(t.node),
					Addr:   lineTag * uint64(m.Spec.LineSize),
					Cost:   cost,
				})
			}
		}
	}
	if write {
		t.noteWriter(lineTag)
	}
	return cost
}

// contentionWindow is the DRAM access count that triggers a contention
// refresh, checked at round boundaries once the threads' window deltas
// have merged.
const contentionWindow = 8192

// noteDRAM records a DRAM access for contention modelling and AutoNUMA
// sampling. Everything accumulates thread-locally (merged at the round
// boundary); only the daemon's pre-sized access table is written in
// place, on this thread's exclusive row.
func (m *Machine) noteDRAM(home topology.NodeID, t *Thread) {
	t.dramDelta[home]++
	t.winDelta++
	if home != t.node {
		t.remoteDelta++
	}
	t.sampleTick++
	if (m.cfg.AutoNUMA || m.daemon != nil) && t.sampleTick%16 == 0 {
		vpn := t.lastVPN
		e, ok := t.sampleDelta[vpn]
		if !ok {
			e = m.samples[vpn]
		}
		if e.thread == t.id {
			e.hits++
		} else {
			e = sampleEntry{thread: t.id, hits: 1}
		}
		e.node = t.node
		t.sampleDelta[vpn] = e
	}
	if m.daemon != nil {
		m.noteThreadNode(t.id, home)
	}
}

// refreshContention recomputes the controller and link multipliers from
// the access window. Pressure on a node is active threads times that
// node's share of DRAM traffic; a controller absorbs ControllerFree
// concurrent streams, beyond which queueing grows with the square root of
// the excess (memory controllers pipeline heavily, so saturation is
// sublinear), capped at 8x.
func (m *Machine) refreshContention() {
	active := float64(m.active)
	if active < 1 {
		active = 1
	}
	for n := range m.dramWindow {
		share := m.dramWindow[n] / m.windowTotal
		ratio := active * share / m.P.ControllerFree
		if ratio > 1 {
			mult := 1 + m.P.ControllerCoeff*(math.Sqrt(ratio)-1)
			if mult > 8 {
				mult = 8
			}
			m.nodeMult[n] = mult
		} else {
			m.nodeMult[n] = 1
		}
		m.dramWindow[n] /= 2 // exponential decay for smoothness
	}
	// Interconnect sharing: remote traffic rate normalized by the link
	// bandwidth (4.8 GT/s reference); the fabric absorbs a few concurrent
	// remote streams before queueing.
	remoteShare := m.remoteWin / m.windowTotal
	linkPressure := remoteShare * active * (4.8 / m.Spec.Topo.LinkBandwidthGTs())
	if linkPressure > 8 {
		m.linkMult = 1 + m.P.LinkCoeff*math.Log2(linkPressure/8)
	} else {
		m.linkMult = 1
	}
	m.windowTotal /= 2
	m.remoteWin /= 2
}
