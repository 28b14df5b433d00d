// Package vmm simulates the kernel's virtual memory management for a NUMA
// machine: a single flat virtual address space, per-node physical capacity,
// demand paging with a configurable placement policy (First Touch,
// Interleave, Localalloc, Preferred), page migration, and transparent
// hugepage promotion and splitting.
//
// The vmm charges no costs itself — the machine layer translates vmm events
// (faults, migrations, remote placements) into cycles. This keeps the
// policy mechanics testable in isolation.
package vmm

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/trace"
)

// Page geometry. The simulator uses the same 4KiB base pages and 2MiB huge
// pages as the Linux systems in the paper.
const (
	PageShift     = 12
	PageSize      = 1 << PageShift // 4 KiB
	HugePageShift = 21
	HugePageSize  = 1 << HugePageShift        // 2 MiB
	PagesPerHuge  = HugePageSize / PageSize   // 512
	hugeMask      = ^uint64(PagesPerHuge - 1) // vpn -> huge-group base
)

// Policy selects where newly faulted pages are placed, mirroring numactl.
type Policy int

const (
	// FirstTouch places each page on the node of the thread that first
	// touches it (the Linux default).
	FirstTouch Policy = iota
	// Interleave places pages round-robin across all nodes by page index.
	Interleave
	// Localalloc places pages on the node that performed the allocation
	// (the owner of the reservation), regardless of who touches first.
	Localalloc
	// Preferred places all pages on a single chosen node, falling back to
	// other nodes when it is full.
	Preferred
)

// String returns the policy name as the paper spells it.
func (p Policy) String() string {
	switch p {
	case FirstTouch:
		return "First Touch"
	case Interleave:
		return "Interleave"
	case Localalloc:
		return "Localalloc"
	case Preferred:
		return "Preferred"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Policies lists all placement policies in the paper's order.
func Policies() []Policy { return []Policy{FirstTouch, Interleave, Localalloc, Preferred} }

// Range is a reserved region of virtual address space.
type Range struct {
	Base  uint64
	Bytes uint64
	// Owner is the NUMA node of the thread that made the reservation;
	// used by the Localalloc policy.
	Owner topology.NodeID
}

// End returns one past the last byte of the range.
func (r Range) End() uint64 { return r.Base + r.Bytes }

const (
	flagMapped = 1 << iota
	flagHuge
)

// entry is one page-table entry; kept small because the table is dense.
type entry struct {
	node  int8
	flags uint8
	owner int8 // reservation owner at fault time, for Localalloc
}

// FaultKind describes what a Fault call did.
type FaultKind int

const (
	// Hit means the page was already mapped.
	Hit FaultKind = iota
	// MinorFault means the page was mapped by this call.
	MinorFault
)

// Fault reports the outcome of an address access at the paging level.
type Fault struct {
	Node topology.NodeID
	Kind FaultKind
	Huge bool
	// HugeMapped is set when this fault installed a whole 2MiB mapping
	// (THP "always" fault path).
	HugeMapped bool
}

// Memory is the simulated VM subsystem for one machine.
type Memory struct {
	topo     *topology.Topology
	perNode  uint64 // capacity per node, bytes
	used     []uint64
	table    []entry
	nextBase uint64
	owners   []reservation // sorted by base; reservations never overlap

	policy    Policy
	preferred topology.NodeID
	thpAlways bool // THP "always": map whole 2MiB groups at fault time

	// Weighted interleave (nil when unweighted): per-node weights and the
	// smooth weighted-round-robin credit state that spreads placements
	// proportionally without bursts. Installed by SetInterleaveWeights.
	weights []float64
	credit  []float64

	// Counters for tests and the perf layer.
	Mapped      uint64 // pages currently mapped
	MinorFaults uint64
	Migrations  uint64 // page migrations
	Promotions  uint64 // hugepage promotions
	Splits      uint64 // hugepage splits

	// Trace hooks, attached by the machine layer. sink is nil unless
	// tracing is on; now supplies the virtual timestamp and the acting
	// thread id (-1 for kernel daemons) for each event. initiator tags
	// every emitted event with the mechanism driving the current call —
	// the zero value is trace.InitDemand (the application's own access
	// path); daemons and the orchestrator's actuator set it around their
	// passes via SetInitiator.
	sink      trace.Sink
	now       func() (cycle float64, thread int32)
	initiator trace.Initiator
}

type reservation struct {
	base, bytes uint64
	owner       topology.NodeID
}

// New creates a Memory over the given topology with perNodeBytes of
// physical capacity on every node.
func New(topo *topology.Topology, perNodeBytes uint64) *Memory {
	return &Memory{
		topo:    topo,
		perNode: perNodeBytes,
		used:    make([]uint64, topo.Nodes()),
	}
}

// SetPolicy selects the placement policy for subsequent faults. The
// preferred node is only consulted by the Preferred policy.
func (m *Memory) SetPolicy(p Policy, preferred topology.NodeID) {
	m.policy = p
	m.preferred = preferred
}

// SetTrace attaches an event sink. now supplies the virtual cycle stamp
// and acting thread id for each event (the machine layer reads them from
// its scheduler state). A nil sink disables tracing; every emission site
// is guarded, so the disabled path costs one pointer compare.
func (m *Memory) SetTrace(sink trace.Sink, now func() (cycle float64, thread int32)) {
	m.sink = sink
	m.now = now
}

// SetInitiator tags subsequent emitted events with the given mechanism and
// returns the previous tag so callers can restore it. The machine layer
// brackets kernel-daemon passes and actuator calls with it; everything
// else runs under the zero value, trace.InitDemand.
func (m *Memory) SetInitiator(i trace.Initiator) trace.Initiator {
	prev := m.initiator
	m.initiator = i
	return prev
}

func (m *Memory) emit(kind trace.Kind, addr uint64, from, to topology.NodeID) {
	cyc, th := m.now()
	m.sink.Emit(trace.Event{
		Cycle:     cyc,
		Kind:      kind,
		Initiator: m.initiator,
		Thread:    th,
		From:      int16(from),
		To:        int16(to),
		Addr:      addr,
	})
}

// SetInterleaveWeights makes the Interleave policy bandwidth-aware:
// subsequent faults distribute pages across nodes in proportion to w
// (one non-negative weight per node, at least one positive) instead of
// round-robin by page index. The machine's placement daemon derives w
// from modeled memory-controller occupancy, steering new pages away from
// saturated controllers. Placement uses smooth weighted round-robin, so
// a 2:1:1:1 weighting emits no bursts, and the sequence is a pure
// function of fault order (deterministic). Pass nil to restore the
// unweighted rotor. Already-mapped pages are unaffected.
func (m *Memory) SetInterleaveWeights(w []float64) {
	if w == nil {
		m.weights, m.credit = nil, nil
		return
	}
	if len(w) != m.topo.Nodes() {
		panic(fmt.Sprintf("vmm: SetInterleaveWeights got %d weights for %d nodes", len(w), m.topo.Nodes()))
	}
	positive := false
	for _, x := range w {
		if x < 0 {
			panic("vmm: SetInterleaveWeights got a negative weight")
		}
		if x > 0 {
			positive = true
		}
	}
	if !positive {
		panic("vmm: SetInterleaveWeights needs at least one positive weight")
	}
	m.weights = append([]float64(nil), w...)
	m.credit = make([]float64, len(w))
}

// InterleaveWeights returns a copy of the active interleave weights, nil
// when the rotor is unweighted.
func (m *Memory) InterleaveWeights() []float64 {
	return append([]float64(nil), m.weights...)
}

// weightedNode advances the smooth weighted-round-robin rotor one step:
// every node gains its weight in credit, the richest node (lowest index
// on ties) is picked and pays back the total.
func (m *Memory) weightedNode() topology.NodeID {
	best := 0
	total := 0.0
	for i, w := range m.weights {
		m.credit[i] += w
		total += w
		if m.credit[i] > m.credit[best] {
			best = i
		}
	}
	m.credit[best] -= total
	return topology.NodeID(best)
}

// SetTHP toggles Transparent Hugepages "always" mode: faults inside a
// reservation that fully covers an untouched 2MiB-aligned group map the
// whole group as one hugepage (cheap zeroing per byte, coarse placement,
// and 2MiB of RSS for the first touched byte).
func (m *Memory) SetTHP(on bool) { m.thpAlways = on }

// Reserve claims bytes of virtual address space for an allocator owned by a
// thread on the given node. No physical memory is committed; pages fault in
// on first touch. The base is always page aligned.
func (m *Memory) Reserve(bytes uint64, owner topology.NodeID) Range {
	if bytes == 0 {
		bytes = PageSize
	}
	bytes = (bytes + PageSize - 1) &^ uint64(PageSize-1)
	// Keep reservations hugepage-aligned so THP promotion groups never
	// straddle two reservations.
	base := (m.nextBase + HugePageSize - 1) &^ uint64(HugePageSize-1)
	m.nextBase = base + bytes
	endVPN := (base + bytes) >> PageShift
	if uint64(len(m.table)) < endVPN {
		grown := make([]entry, endVPN+endVPN/4)
		copy(grown, m.table)
		m.table = grown
	}
	m.owners = append(m.owners, reservation{base: base, bytes: bytes, owner: owner})
	return Range{Base: base, Bytes: bytes, Owner: owner}
}

// Release unmaps every page of r and returns its physical memory. The
// virtual address range is not reused.
func (m *Memory) Release(r Range) {
	start := r.Base >> PageShift
	end := r.End() >> PageShift
	for vpn := start; vpn < end; vpn++ {
		m.unmapVPN(vpn)
	}
}

// UnmapRange returns the physical pages backing [base, base+bytes) to the
// OS, as allocators do with madvise(MADV_DONTNEED). Partial hugepages are
// split first, which is exactly the allocator/THP pathology the paper
// observes in Figure 5c.
func (m *Memory) UnmapRange(base, bytes uint64) {
	start := base >> PageShift
	end := (base + bytes + PageSize - 1) >> PageShift
	for vpn := start; vpn < end; vpn++ {
		m.unmapVPN(vpn)
	}
}

func (m *Memory) unmapVPN(vpn uint64) {
	if vpn >= uint64(len(m.table)) {
		return
	}
	e := &m.table[vpn]
	if e.flags&flagMapped == 0 {
		return
	}
	if e.flags&flagHuge != 0 {
		m.splitVPN(vpn)
	}
	e.flags = 0
	m.used[e.node] -= PageSize
	m.Mapped--
}

// Locate returns the node backing addr without faulting. ok is false when
// the page is not mapped.
func (m *Memory) Locate(addr uint64) (node topology.NodeID, huge, ok bool) {
	vpn := addr >> PageShift
	if vpn >= uint64(len(m.table)) {
		return 0, false, false
	}
	e := m.table[vpn]
	if e.flags&flagMapped == 0 {
		return 0, false, false
	}
	return topology.NodeID(e.node), e.flags&flagHuge != 0, true
}

// Fault resolves addr for an access by a thread on toucher, mapping the
// page according to the active policy if needed.
func (m *Memory) Fault(addr uint64, toucher topology.NodeID) Fault {
	vpn := addr >> PageShift
	if vpn >= uint64(len(m.table)) {
		// Access outside any reservation: treat as a bug in the caller.
		panic(fmt.Sprintf("vmm: access to unreserved address %#x", addr))
	}
	e := &m.table[vpn]
	if e.flags&flagMapped != 0 {
		return Fault{Node: topology.NodeID(e.node), Kind: Hit, Huge: e.flags&flagHuge != 0}
	}
	owner := m.ownerOf(addr)
	if m.thpAlways {
		if f, ok := m.hugeFault(vpn, toucher, owner); ok {
			return f
		}
	}
	target := m.placeFor(vpn, toucher, owner)
	target = m.withCapacity(target)
	e.node = int8(target)
	e.owner = int8(owner)
	e.flags = flagMapped
	m.used[target] += PageSize
	m.Mapped++
	m.MinorFaults++
	if m.sink != nil {
		m.emit(trace.PageFault, vpn<<PageShift, toucher, target)
	}
	return Fault{Node: target, Kind: MinorFault}
}

// hugeFault attempts the THP "always" fault path: if the 2MiB group around
// vpn is entirely unmapped and entirely inside one reservation, it maps
// the whole group as a hugepage on one node.
func (m *Memory) hugeFault(vpn uint64, toucher, owner topology.NodeID) (Fault, bool) {
	base := vpn & hugeMask
	if base+PagesPerHuge > uint64(len(m.table)) {
		return Fault{}, false
	}
	if !m.groupInOneReservation(base) {
		return Fault{}, false
	}
	for p := base; p < base+PagesPerHuge; p++ {
		if m.table[p].flags&flagMapped != 0 {
			return Fault{}, false
		}
	}
	// Placement at 2MiB granularity: interleave by group index, the
	// others by their usual rule.
	var target topology.NodeID
	switch m.policy {
	case Interleave:
		if m.weights != nil {
			target = m.weightedNode()
		} else {
			// Seeded from the toucher like the base-page rotor.
			target = topology.NodeID((base/PagesPerHuge + uint64(toucher)) % uint64(m.topo.Nodes()))
		}
	case Localalloc:
		target = owner
	case Preferred:
		target = m.preferred
	default:
		target = toucher
	}
	if m.used[target]+HugePageSize > m.perNode {
		target = m.withCapacity(target)
		if m.used[target]+HugePageSize > m.perNode {
			return Fault{}, false // no node has 2MiB free: fall back
		}
	}
	for p := base; p < base+PagesPerHuge; p++ {
		e := &m.table[p]
		e.node = int8(target)
		e.owner = int8(owner)
		e.flags = flagMapped | flagHuge
	}
	m.used[target] += HugePageSize
	m.Mapped += PagesPerHuge
	m.MinorFaults++ // one fault installs the whole mapping
	m.Promotions++
	if m.sink != nil {
		m.emit(trace.HugeMap, base<<PageShift, toucher, target)
	}
	return Fault{Node: target, Kind: MinorFault, Huge: true, HugeMapped: true}, true
}

// groupInOneReservation reports whether the 2MiB group starting at base
// (a vpn) lies entirely within a single reservation.
func (m *Memory) groupInOneReservation(base uint64) bool {
	addr := base << PageShift
	end := addr + HugePageSize
	for i := len(m.owners) - 1; i >= 0; i-- {
		r := m.owners[i]
		if addr >= r.base && addr < r.base+r.bytes {
			return end <= r.base+r.bytes
		}
	}
	return false
}

// placeFor applies the placement policy for a fresh fault.
func (m *Memory) placeFor(vpn uint64, toucher, owner topology.NodeID) topology.NodeID {
	switch m.policy {
	case Interleave:
		if m.weights != nil {
			return m.weightedNode()
		}
		// The rotor is seeded from the faulting thread's node (as Linux
		// seeds the interleave index from the faulting task), so pages
		// spread symmetrically no matter which node touches first instead
		// of every toucher starting its stride at node 0.
		return topology.NodeID((vpn + uint64(toucher)) % uint64(m.topo.Nodes()))
	case Localalloc:
		return owner
	case Preferred:
		return m.preferred
	default: // FirstTouch
		return toucher
	}
}

// withCapacity falls back to the nearest node with free capacity, like the
// kernel's zone fallback lists.
func (m *Memory) withCapacity(want topology.NodeID) topology.NodeID {
	if m.used[want]+PageSize <= m.perNode {
		return want
	}
	best := topology.NodeID(-1)
	bestHops := int(^uint(0) >> 1)
	for n := 0; n < m.topo.Nodes(); n++ {
		if m.used[n]+PageSize > m.perNode {
			continue
		}
		if h := m.topo.Hops(want, topology.NodeID(n)); h < bestHops {
			best, bestHops = topology.NodeID(n), h
		}
	}
	if best < 0 {
		panic("vmm: out of simulated physical memory on all nodes")
	}
	return best
}

// ownerOf finds the reservation owner for addr (linear scan is fine: the
// table is consulted only on faults, and reservations are few and appended
// in address order so we scan backwards to hit recent ones first).
func (m *Memory) ownerOf(addr uint64) topology.NodeID {
	for i := len(m.owners) - 1; i >= 0; i-- {
		r := m.owners[i]
		if addr >= r.base && addr < r.base+r.bytes {
			return r.owner
		}
	}
	return 0
}

// MigratePage moves the page containing addr to node to. It reports whether
// a migration happened (the page must be mapped, not huge, and not already
// there). Huge pages must be split before migration, as in Linux.
func (m *Memory) MigratePage(addr uint64, to topology.NodeID) bool {
	vpn := addr >> PageShift
	if vpn >= uint64(len(m.table)) {
		return false
	}
	e := &m.table[vpn]
	if e.flags&flagMapped == 0 || e.flags&flagHuge != 0 || topology.NodeID(e.node) == to {
		return false
	}
	if m.used[to]+PageSize > m.perNode {
		return false
	}
	from := topology.NodeID(e.node)
	m.used[e.node] -= PageSize
	m.used[to] += PageSize
	e.node = int8(to)
	m.Migrations++
	if m.sink != nil {
		m.emit(trace.PageMigration, vpn<<PageShift, from, to)
	}
	return true
}

// PromoteHuge attempts to merge the 512-page group containing addr into a
// single 2MiB page, as khugepaged does. All 512 base pages must be mapped
// on the same node and not already huge. It reports success.
func (m *Memory) PromoteHuge(addr uint64) bool {
	base := (addr >> PageShift) & hugeMask
	if base+PagesPerHuge > uint64(len(m.table)) {
		return false
	}
	node := int8(-1)
	for vpn := base; vpn < base+PagesPerHuge; vpn++ {
		e := m.table[vpn]
		if e.flags&flagMapped == 0 || e.flags&flagHuge != 0 {
			return false
		}
		if node < 0 {
			node = e.node
		} else if e.node != node {
			return false
		}
	}
	for vpn := base; vpn < base+PagesPerHuge; vpn++ {
		m.table[vpn].flags |= flagHuge
	}
	m.Promotions++
	if m.sink != nil {
		m.emit(trace.HugeCollapse, base<<PageShift, -1, topology.NodeID(node))
	}
	return true
}

// SplitHuge splits the huge page containing addr back into base pages. It
// reports whether a split happened.
func (m *Memory) SplitHuge(addr uint64) bool {
	return m.splitVPN(addr >> PageShift)
}

func (m *Memory) splitVPN(vpn uint64) bool {
	if vpn >= uint64(len(m.table)) {
		return false
	}
	if m.table[vpn].flags&flagHuge == 0 {
		return false
	}
	base := vpn & hugeMask
	for p := base; p < base+PagesPerHuge && p < uint64(len(m.table)); p++ {
		m.table[p].flags &^= flagHuge
	}
	m.Splits++
	if m.sink != nil {
		m.emit(trace.HugeSplit, base<<PageShift, topology.NodeID(m.table[base].node), -1)
	}
	return true
}

// HugeCandidates calls fn for the base address of every fully mapped,
// same-node, not-yet-huge 512-page group within r. The kernel's khugepaged
// uses the same eligibility rule.
func (m *Memory) HugeCandidates(r Range, fn func(baseAddr uint64)) {
	start := (r.Base >> PageShift) & hugeMask
	end := (r.End() + HugePageSize - 1) >> PageShift
	for group := start; group < end; group += PagesPerHuge {
		if group+PagesPerHuge > uint64(len(m.table)) {
			return
		}
		eligible := true
		node := int8(-1)
		for vpn := group; vpn < group+PagesPerHuge; vpn++ {
			e := m.table[vpn]
			if e.flags&flagMapped == 0 || e.flags&flagHuge != 0 {
				eligible = false
				break
			}
			if node < 0 {
				node = e.node
			} else if e.node != node {
				eligible = false
				break
			}
		}
		if eligible {
			fn(group << PageShift)
		}
	}
}

// Reservations calls fn for every reservation made so far, in address
// order. The THP daemon uses this to scan for promotion candidates.
func (m *Memory) Reservations(fn func(r Range)) {
	for _, res := range m.owners {
		fn(Range{Base: res.base, Bytes: res.bytes, Owner: res.owner})
	}
}

// NodeUsed returns the bytes mapped on node n.
func (m *Memory) NodeUsed(n topology.NodeID) uint64 { return m.used[n] }

// MappedBytes returns total mapped physical memory (the simulated RSS).
func (m *Memory) MappedBytes() uint64 { return m.Mapped * PageSize }
