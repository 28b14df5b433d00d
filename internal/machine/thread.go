package machine

import (
	"repro/internal/cache"
	"repro/internal/topology"
	"repro/internal/vmm"
	"repro/internal/xrand"
)

// Thread is a simulated worker thread. Workload bodies use it for every
// interaction with the machine: memory access, allocation, and pure-CPU
// work. Threads are cooperative and the virtual-time interleaving is
// faithful to the quantum granularity. Quanta execute one at a time on the
// host, so a body needs no synchronization of Go state.
type Thread struct {
	m    *Machine
	id   int
	hw   int             // hardware context index
	node topology.NodeID // NUMA node of hw, kept in sync by the scheduler

	l1  *cache.Cache
	tlb *cache.TLB
	rng *xrand.Rand

	cycles     float64 // virtual time consumed (work + stalls)
	wall       float64 // wall time, inflated by context oversubscription
	sliceBase  float64 // cycles at the start of the current quantum
	lastVPN    uint64  // most recent DRAM access page, for NUMA sampling
	migrations uint64

	// Round-local effect accumulators, merged by the scheduler at every
	// round boundary (see round.go): perf counters, the DRAM contention
	// window (per home node, plus total and remote-share tallies), and
	// AutoNUMA access samples. sampleTick paces the 1-in-16 sampling of
	// this thread's DRAM accesses.
	counters    Counters
	dramDelta   []float64
	winDelta    float64
	remoteDelta float64
	sampleDelta map[uint64]sampleEntry
	sampleTick  uint64

	// group is the thread's node group while it runs in the group's turn,
	// nil in the serial phase and at boundaries. quantumStart and
	// needSerial carry a split quantum (one that parked on a serializing
	// operation) into the serial phase.
	group        *schedGroup
	quantumStart float64
	needSerial   bool

	resume chan struct{}
	parked chan struct{}
	done   bool
}

// ID returns the thread's index in [0, Threads).
func (t *Thread) ID() int { return t.id }

// Node returns the NUMA node the thread currently runs on.
func (t *Thread) Node() topology.NodeID { return t.node }

// RNG returns the thread's private deterministic random stream.
func (t *Thread) RNG() *xrand.Rand { return t.rng }

// Cycles returns the thread's consumed virtual time.
func (t *Thread) Cycles() float64 { return t.cycles }

// stall charges time to a parked thread (kernel daemon activity, thread
// migration). Parked threads are outside any quantum, so the cost must be
// applied to wall time directly as well as to the cycle account.
func (t *Thread) stall(cycles float64) {
	t.cycles += cycles
	t.wall += cycles
}

// parkSerial hands the thread from its group's turn to the round's serial
// phase: the scheduler resumes it after every group has run and the
// round's directory writes have merged, so the operation that needed
// serialization (demand fault, allocator call, page-table mutation) runs
// against base state exactly as it would between quanta.
func (t *Thread) parkSerial() {
	t.needSerial = true
	t.parked <- struct{}{}
	<-t.resume
	// Serial phase: direct effects, and trace events from the VMM and
	// allocator stamp against this thread via Machine.current.
	t.m.current = t
}

// fault resolves the page backing address a. During a group's turn
// mapped pages are served from the read-only page table (vmm.Fault is
// pure for mapped pages, so the outcome is synthesized without touching
// VMM state); anything that would mutate the VMM — a demand fault, first
// touch placement, THP mapping — parks the thread into the serial phase
// and retakes the ordinary mutating path there.
func (t *Thread) fault(a uint64) vmm.Fault {
	m := t.m
	if t.group != nil {
		if node, huge, ok := m.Mem.Locate(a); ok {
			return vmm.Fault{Node: node, Kind: vmm.Hit, Huge: huge}
		}
		t.parkSerial()
	}
	return m.Mem.Fault(a, t.node)
}

// noteWriter records that this thread's node last wrote lineTag.
func (t *Thread) noteWriter(lineTag uint64) {
	m := t.m
	idx := lineTag & uint64(len(m.writerDir)-1)
	m.dirWrite(t.group, idx, uint32(lineTag>>16)<<8|(uint32(t.node)+1))
}

// Charge accounts pure CPU work (hashing, comparisons, arithmetic) that
// touches no simulated memory.
func (t *Thread) Charge(cycles float64) {
	t.cycles += cycles
	if pr := t.m.prof; pr != nil {
		pr.add(t.id, t.node, BucketCompute, cycles)
	}
	t.maybeYield()
}

// Read simulates a load of size bytes at addr, walking TLB, L1, LLC and
// DRAM and charging the appropriate cycles.
func (t *Thread) Read(addr, size uint64) { t.access(addr, size, false) }

// Write simulates a store: the same walk as a load (write-allocate
// caches) plus ownership tracking in the machine's last-writer directory,
// so a later toucher on another node pays the cache-to-cache transfer.
func (t *Thread) Write(addr, size uint64) { t.access(addr, size, true) }

// ReadRun simulates count sequential loads of elem bytes each, laid out
// back to back from addr. It is exactly equivalent to
//
//	for i := 0; i < count; i++ { t.Read(addr+uint64(i)*elem, elem) }
//
// — same charged cycles, counters, trace events and yield points — but
// resolves the page fault once per page (or hugepage group) and the TLB
// set scan once per translation instead of once per element, so dense
// scans cost far less host time. Use it where the access pattern is a
// run; pointer-chasing code keeps the scalar Read/Write.
func (t *Thread) ReadRun(addr, elem uint64, count int) {
	t.accessRun(addr, elem, elem, count, false)
}

// WriteRun is the store analogue of ReadRun.
func (t *Thread) WriteRun(addr, elem uint64, count int) {
	t.accessRun(addr, elem, elem, count, true)
}

// ReadStrided simulates count loads of elem bytes spaced stride bytes
// apart, starting at addr: equivalent to
//
//	for i := 0; i < count; i++ { t.Read(addr+uint64(i)*stride, elem) }
//
// with the same batching as ReadRun. A strided run that revisits each
// page many times (stride < page size) still collapses its translation
// work; once stride exceeds the page size every element pays a fresh
// lookup, exactly like the scalar loop.
func (t *Thread) ReadStrided(addr, elem, stride uint64, count int) {
	t.accessRun(addr, elem, stride, count, false)
}

// WriteStrided is the store analogue of ReadStrided.
func (t *Thread) WriteStrided(addr, elem, stride uint64, count int) {
	t.accessRun(addr, elem, stride, count, true)
}

// Malloc allocates size bytes through the machine's configured allocator,
// charging the allocation cost to the thread. Allocator state is shared
// across the machine, so during a group's turn the call first parks into
// the serial phase.
func (t *Thread) Malloc(size uint64) uint64 {
	if t.group != nil {
		t.parkSerial()
	}
	m := t.m
	m.current = t
	m.pendingLockWait = 0
	addr, cost := m.Alloc.Malloc(t, size)
	m.current = nil
	t.cycles += cost
	t.profAllocCost(cost)
	t.maybeYield()
	return addr
}

// Free releases an allocation (sized free), charging its cost.
func (t *Thread) Free(addr, size uint64) {
	if t.group != nil {
		t.parkSerial()
	}
	m := t.m
	m.current = t
	m.pendingLockWait = 0
	cost := m.Alloc.Free(t, addr, size)
	m.current = nil
	t.cycles += cost
	t.profAllocCost(cost)
	t.maybeYield()
}

// profAllocCost attributes an allocator call's cost, splitting the
// lock-contention wait (accumulated by the lock-wait hook during the call)
// from the allocator's own work. Splits triggered inside the call charged
// the thread directly through UnmapRange and are attributed there.
func (t *Thread) profAllocCost(cost float64) {
	pr := t.m.prof
	if pr == nil {
		return
	}
	stall := t.m.pendingLockWait
	if stall > cost {
		stall = cost
	}
	pr.add(t.id, t.node, BucketAllocStall, stall)
	pr.add(t.id, t.node, BucketAllocWork, cost-stall)
}

// access charges one simulated memory access. Accesses confined to one
// cache line — the common case for the scalar pointer-chasing kernels —
// skip the run engine's batching state entirely.
func (t *Thread) access(addr, size uint64, write bool) {
	if size == 0 {
		return
	}
	m := t.m
	if addr&^(m.lineSize-1) != (addr+size-1)&^(m.lineSize-1) {
		t.accessRun(addr, size, 0, 1, write)
		return
	}
	// Mark the acting thread so trace events emitted along the serial
	// access path (faults, placements) are stamped with its cycle account.
	// During a group's turn Machine.current stays untouched: the group
	// path emits no VMM events and stamps coherence events explicitly.
	if t.group == nil {
		m.current = t
	}
	t.accessLine(addr&^(m.lineSize-1), write)
	if t.group == nil {
		m.current = nil
	}
	t.maybeYield()
}

// accessLine charges one line the scalar way: full fault resolution and
// TLB lookup, no cached translation. Kept in lockstep with the line body
// of accessRun (which adds the between-yield caching on top).
func (t *Thread) accessLine(a uint64, write bool) {
	m := t.m
	p := &m.P
	cost := 0.0
	var faultC, walkC float64
	vpn := a >> vmm.PageShift
	f := t.fault(a)
	node := t.node
	if f.Kind == vmm.MinorFault {
		cost += p.MinorFaultCycles
		faultC = p.MinorFaultCycles
		if f.HugeMapped {
			cost += p.THPFaultCycles
			faultC += p.THPFaultCycles
		}
	}
	if !t.tlb.Access(vpn, f.Huge) {
		t.counters.TLBMisses++
		if f.Huge {
			cost += p.WalkHugeCycles
			walkC = p.WalkHugeCycles
		} else {
			cost += p.WalkCycles
			walkC = p.WalkCycles
		}
	}
	lineTag := a >> m.lineShift
	if t.l1.Access(lineTag) {
		if write {
			t.noteWriter(lineTag)
		}
		t.cycles += cost + p.L1HitCycles
		if prof := m.prof; prof != nil {
			prof.access(t.id, node, faultC, walkC, 0, BucketL1Hit, p.L1HitCycles)
		}
		return
	}
	cohC := m.coherencePenalty(t, lineTag, write)
	cost += cohC
	t.counters.CacheAccesses++
	if m.llc[node].Access(lineTag) {
		t.cycles += cost + p.LLCHitCycles
		if prof := m.prof; prof != nil {
			prof.access(t.id, node, faultC, walkC, cohC, BucketLLCHit, p.LLCHitCycles)
		}
		return
	}
	t.counters.CacheMisses++
	home := f.Node
	dram := p.DRAMCycles * m.Spec.Topo.Latency(node, home) * m.nodeMult[home]
	if home != node {
		dram *= m.linkMult
		t.counters.RemoteAccesses++
	} else {
		t.counters.LocalAccesses++
	}
	t.lastVPN = vpn
	m.noteDRAM(home, t)
	t.cycles += cost + dram
	if prof := m.prof; prof != nil {
		prof.access(t.id, node, faultC, walkC, cohC,
			dramBucket(m.Spec.Topo.Hops(node, home)), dram)
		prof.dram(node, home)
	}
}

// accessRun is the memory-access engine behind Read/Write and the batched
// Run/Strided variants: count elements of elem bytes, stride bytes apart,
// each element one scalar access (line walk, then a yield check).
//
// The fast path caches the active translation between lines and elements:
// the fault outcome for the current page (or 2MiB group) and the TLB entry
// serving it. Both are guaranteed re-hits until the next yield — the
// scheduler only runs daemons (page/thread migration, hugepage splits, TLB
// flushes) between quanta, and a serial handoff counts as a yield — so the
// cache is dropped at every yield point and the charged costs stay
// bit-identical to the uncached walk.
func (t *Thread) accessRun(addr, elem, stride uint64, count int, write bool) {
	if elem == 0 || count <= 0 {
		return
	}
	m := t.m
	p := &m.P
	lineMask := m.lineSize - 1
	prof := m.prof
	quantum := p.Quantum

	// Translation cache, valid for vpns in [fLo, fHi] until the next yield.
	var (
		haveF    bool
		f        vmm.Fault
		fLo, fHi uint64
	)
	// Line cache: when elem < lineSize consecutive elements land on the
	// same line, which is then a guaranteed L1 re-hit (it was touched by
	// the previous element and nothing else operates on the private L1
	// until the next yield).
	var (
		haveLine bool
		lastTag  uint64
	)

	for i := 0; i < count; i++ {
		a0 := addr + uint64(i)*stride
		last := (a0 + elem - 1) &^ lineMask
		// Mark the acting thread so trace events emitted along the serial
		// access path (faults, placements) are stamped with its cycle
		// account; cleared before yielding so daemon work is stamped on
		// the global clock. The group path leaves Machine.current alone —
		// it emits no VMM events and stamps coherence events explicitly.
		if t.group == nil {
			m.current = t
		}
		for a := a0 &^ lineMask; ; a += m.lineSize {
			node := t.node
			cost := 0.0
			// Component costs mirror the additions into cost so the
			// profiler can attribute them; the cost arithmetic itself is
			// untouched, keeping profiled runs bit-identical to unprofiled
			// ones.
			var faultC, walkC float64
			vpn := a >> vmm.PageShift
			if haveF && vpn >= fLo && vpn <= fHi {
				// Cached translation: the page is mapped (fault hit) and
				// the TLB entry was touched by the previous line, so the
				// lookup re-hits — unless this is a huge translation with
				// no 2MiB TLB array, where every line walks.
				if !t.tlb.Repeat(f.Huge) {
					t.counters.TLBMisses++
					cost += p.WalkHugeCycles
					walkC = p.WalkHugeCycles
				}
			} else {
				inGroup := t.group != nil
				f = t.fault(a)
				if inGroup && t.group == nil {
					// The fault crossed into the serial phase: other
					// threads ran in between, so the cached line handle is
					// stale (dropping it is always safe — the uncached
					// walk charges identically).
					haveLine = false
				}
				node = t.node
				if f.Kind == vmm.MinorFault {
					cost += p.MinorFaultCycles
					faultC = p.MinorFaultCycles
					if f.HugeMapped {
						// THP fault: one fault maps 2MiB, but zeroing it
						// costs extra.
						cost += p.THPFaultCycles
						faultC += p.THPFaultCycles
					}
				}
				if !t.tlb.Access(vpn, f.Huge) {
					t.counters.TLBMisses++
					if f.Huge {
						cost += p.WalkHugeCycles
						walkC = p.WalkHugeCycles
					} else {
						cost += p.WalkCycles
						walkC = p.WalkCycles
					}
				}
				haveF = true
				if f.Huge {
					fLo = vpn &^ uint64(vmm.PagesPerHuge-1)
					fHi = fLo + vmm.PagesPerHuge - 1
				} else {
					fLo, fHi = vpn, vpn
				}
			}
			lineTag := a >> m.lineShift
			l1Hit := true
			if haveLine && lineTag == lastTag {
				t.l1.Repeat()
			} else {
				l1Hit = t.l1.Access(lineTag)
				haveLine, lastTag = true, lineTag
			}
			if l1Hit {
				// L1 hit: the line is already owned or shared by this core.
				if write {
					t.noteWriter(lineTag)
				}
				t.cycles += cost + p.L1HitCycles
				if prof != nil {
					prof.access(t.id, node, faultC, walkC, 0, BucketL1Hit, p.L1HitCycles)
				}
			} else {
				// Past L1, a line dirty in another node's cache costs a
				// transfer.
				cohC := m.coherencePenalty(t, lineTag, write)
				cost += cohC
				t.counters.CacheAccesses++
				if m.llc[node].Access(lineTag) {
					t.cycles += cost + p.LLCHitCycles
					if prof != nil {
						prof.access(t.id, node, faultC, walkC, cohC, BucketLLCHit, p.LLCHitCycles)
					}
				} else {
					t.counters.CacheMisses++
					home := f.Node
					dram := p.DRAMCycles * m.Spec.Topo.Latency(node, home) * m.nodeMult[home]
					if home != node {
						dram *= m.linkMult
						t.counters.RemoteAccesses++
					} else {
						t.counters.LocalAccesses++
					}
					t.lastVPN = vpn
					m.noteDRAM(home, t)
					t.cycles += cost + dram
					if prof != nil {
						prof.access(t.id, node, faultC, walkC, cohC,
							dramBucket(m.Spec.Topo.Hops(node, home)), dram)
						prof.dram(node, home)
					}
				}
			}
			if a == last {
				break
			}
		}
		if t.group == nil {
			m.current = nil
		}
		// Inline maybeYield. Yielding parks the thread, and the scheduler
		// may run daemons (page migrations, hugepage splits/promotions, TLB
		// flushes and shootdowns) or move the thread before resuming it —
		// every cached handle is stale afterwards.
		if t.cycles-t.sliceBase >= quantum {
			t.sliceBase = t.cycles
			t.parked <- struct{}{}
			<-t.resume
			haveF = false
			haveLine = false
		}
	}
}
