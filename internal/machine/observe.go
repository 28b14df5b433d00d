package machine

import (
	"slices"

	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vmm"
)

// ObserveOptions selects what a Machine records. The zero value observes
// nothing; set the fields for the instruments you want.
type ObserveOptions struct {
	// Trace attaches an event sink. With Sink nil a fresh trace.Recorder
	// is attached (retrieve it via Telemetry.Events or Machine.Trace).
	Trace bool
	// Sink is the event sink to attach; implies Trace when non-nil.
	Sink trace.Sink
	// Profile turns on 18-bucket cycle attribution (a fresh accumulation).
	Profile bool
	// SnapEvery, when positive, starts periodic counter snapshots at that
	// simulated-cycle cadence (a fresh series).
	SnapEvery float64
	// Spans marks the machine for request-level span collection: harnesses
	// that support it (internal/serve, the TPC-H CLI) check SpansEnabled and
	// assemble spans from telemetry. Spans imply Profile — span bucket
	// deltas come from the profiler — and are observation-only: the
	// simulated results are bit-identical with spans on or off.
	Spans bool
}

// Observe attaches the selected instruments and returns a read-only
// Telemetry view over the machine. Instruments only observe: a run with
// any combination of them attached is byte-identical to an uninstrumented
// run, and with none attached every hook reduces to one pointer compare.
// Observe may be called again between phases to re-scope or extend what
// is recorded; instruments it is not asked for stay as they are. Use
// ResetCounters to rescope the counter profile.
func (m *Machine) Observe(o ObserveOptions) *Telemetry {
	if o.Trace || o.Sink != nil {
		if o.Sink == nil {
			o.Sink = trace.NewRecorder()
		}
		m.trace = o.Sink
		m.Mem.SetTrace(o.Sink, m.traceNow)
	}
	if o.Spans {
		m.spans = true
		o.Profile = true
	}
	if o.Profile {
		m.prof = newProfiler(m.Spec.Topo.Nodes())
	}
	if o.Sink != nil || o.Profile {
		m.wireAllocHooks()
	}
	if o.SnapEvery > 0 {
		// The new series gets its own backing storage: a slice previously
		// obtained from Snapshots stays valid across a restart.
		m.snapEvery = o.SnapEvery
		m.nextSnap = m.clock + o.SnapEvery
		m.snaps = nil
	}
	return &Telemetry{m: m}
}

// SpansEnabled reports whether Observe was asked for request-level spans.
// The machine itself emits no spans; harnesses (internal/serve, the TPC-H
// CLI) read this to decide whether to assemble them from telemetry.
func (m *Machine) SpansEnabled() bool { return m.spans }

// Telemetry is a read-only view over one machine's live instrumentation:
// counters, snapshots, cycle attribution, trace events, and the
// contention/access state the placement daemon consumes. Every accessor
// copies, so holding or mutating returned values never perturbs the
// machine. Obtain one from Machine.Observe, or receive one inside a
// daemon callback (see SetDaemon).
type Telemetry struct {
	m *Machine
}

// Clock returns the machine's global virtual clock.
func (v *Telemetry) Clock() float64 { return v.m.clock }

// Counters returns the counter profile accumulated since the last reset.
func (v *Telemetry) Counters() Counters { return v.m.Counters() }

// LAR returns the current local access ratio.
func (v *Telemetry) LAR() float64 { return v.m.Counters().LAR() }

// Snapshots returns a copy of the periodic counter samples.
func (v *Telemetry) Snapshots() []Snapshot { return v.m.Snapshots() }

// Profile returns the accumulated cycle attribution, nil when profiling
// is off.
func (v *Telemetry) Profile() *Profile { return v.m.Profile() }

// Events returns the recorded trace events when the attached sink is a
// *trace.Recorder (the Observe default), nil otherwise.
func (v *Telemetry) Events() []trace.Event {
	if r, ok := v.m.trace.(*trace.Recorder); ok {
		return r.Events
	}
	return nil
}

// NodeOccupancy returns a copy of the per-node memory-controller
// occupancy multipliers (1 = uncontended; queueing grows the multiplier,
// capped at 8). This is the modeled controller pressure the
// bandwidth-aware interleave policy weights against.
func (v *Telemetry) NodeOccupancy() []float64 {
	return append([]float64(nil), v.m.nodeMult...)
}

// ThreadNodeAccesses returns a copy of the per-thread × per-node DRAM
// access counts accumulated while a daemon is attached:
// row[t][n] counts DRAM accesses by thread t served by node n's memory.
// Nil when no daemon has been attached (the accounting only runs then).
func (v *Telemetry) ThreadNodeAccesses() [][]uint64 {
	if v.m.threadNodeAcc == nil {
		return nil
	}
	out := make([][]uint64, len(v.m.threadNodeAcc))
	for i, row := range v.m.threadNodeAcc {
		out[i] = append([]uint64(nil), row...)
	}
	return out
}

// ThreadNode reports the node thread id currently runs on, and whether the
// thread exists and is still running. Only answers during a daemon window
// (between quanta, inside a SetDaemon callback); outside one it returns
// ok=false.
func (v *Telemetry) ThreadNode(id int) (topology.NodeID, bool) {
	t := v.m.threadByID(v.m.daemonThreads, id)
	if t == nil || t.done {
		return 0, false
	}
	return t.Node(), true
}

// NodeThreads returns how many running threads currently sit on each node
// during a daemon window, nil outside one. Together with
// Spec.CoresPerNode*Spec.ThreadsPerCore this tells a daemon whether a
// target node has free hardware contexts.
func (v *Telemetry) NodeThreads() []int {
	if v.m.daemonThreads == nil {
		return nil
	}
	out := make([]int, v.m.Spec.Topo.Nodes())
	for _, t := range v.m.daemonThreads {
		if !t.done {
			out[t.Node()]++
		}
	}
	return out
}

// HotPage is one sampled page from the access-sampling table: the page's
// address, the thread and node of its last sampled access, the consecutive
// same-thread sample count, and the page's current backing (home node,
// hugepage membership).
type HotPage struct {
	Addr   uint64
	Thread int
	Node   topology.NodeID
	Hits   int
	Home   topology.NodeID
	Huge   bool
}

// HotPages returns the current access samples sorted by address. Sampling
// runs when AutoNUMA is on or a daemon is attached (one access in 16 is
// sampled, exactly the feed the kernel's balancer uses). Unmapped sampled
// pages are omitted.
func (v *Telemetry) HotPages() []HotPage {
	m := v.m
	vpns := make([]uint64, 0, len(m.samples))
	for vpn := range m.samples { //rangecheck:ok keys sorted immediately below
		vpns = append(vpns, vpn)
	}
	slices.Sort(vpns)
	out := make([]HotPage, 0, len(vpns))
	for _, vpn := range vpns {
		e := m.samples[vpn]
		addr := vpn << vmm.PageShift
		home, huge, ok := m.Mem.Locate(addr)
		if !ok {
			continue
		}
		out = append(out, HotPage{
			Addr:   addr,
			Thread: e.thread,
			Node:   e.node,
			Hits:   e.hits,
			Home:   home,
			Huge:   huge,
		})
	}
	return out
}

// Actuator is the placement-control surface a daemon uses to act on the
// machine: move a thread to a node, migrate pages, or reweight the
// interleave rotor. Actuation is only legal inside a daemon window (all
// workload threads parked between quanta); calls outside one panic.
// Every action pays the same modeled costs the kernel's own mechanisms
// pay (reschedule penalty, page copies, TLB shootdowns), charged to the
// affected threads.
type Actuator interface {
	// MigrateThread moves thread id to the least-loaded hardware context
	// on node to. Reports false when the thread does not exist, has
	// finished, or already runs on that node. The move overrides the
	// configured placement pinning — orchestration is explicit policy.
	MigrateThread(id int, to topology.NodeID) bool
	// MigratePages migrates the given page addresses to node to,
	// splitting hugepages as needed, and returns how many pages moved.
	// Addresses already on the target (or unmapped) are skipped; each
	// address's access sample is consumed either way.
	MigratePages(addrs []uint64, to topology.NodeID) int
	// SetInterleaveWeights installs per-node weights for the interleave
	// placement rotor (see vmm.Memory.SetInterleaveWeights); nil restores
	// unweighted round-robin. Affects future faults only.
	SetInterleaveWeights(w []float64)
}

// actuator implements Actuator against one machine.
type actuator struct {
	m *Machine
}

// window returns the parked thread set, panicking outside a daemon window.
func (a actuator) window() []*Thread {
	if a.m.daemonThreads == nil {
		panic("machine: Actuator used outside a daemon window")
	}
	return a.m.daemonThreads
}

func (a actuator) MigrateThread(id int, to topology.NodeID) bool {
	m := a.m
	threads := a.window()
	t := m.threadByID(threads, id)
	if t == nil || t.done {
		return false
	}
	if to < 0 || int(to) >= m.Spec.Topo.Nodes() || t.Node() == to {
		return false
	}
	per := m.Spec.CoresPerNode * m.Spec.ThreadsPerCore
	base := int(to) * per
	best := base
	for hw := base + 1; hw < base+per; hw++ {
		if m.hwLoad[hw] < m.hwLoad[best] {
			best = hw
		}
	}
	m.migrateThread(t, best, trace.InitOrchestrator)
	return true
}

func (a actuator) MigratePages(addrs []uint64, to topology.NodeID) int {
	m := a.m
	threads := a.window()
	if to < 0 || int(to) >= m.Spec.Topo.Nodes() {
		return 0
	}
	// Splits and migrations this call forces are the orchestrator's doing.
	defer m.Mem.SetInitiator(m.Mem.SetInitiator(trace.InitOrchestrator))
	alive := 0
	for _, t := range threads {
		if !t.done {
			alive++
		}
	}
	moved := 0
	for _, addr := range addrs {
		vpn := addr >> vmm.PageShift
		home, huge, ok := m.Mem.Locate(addr)
		if !ok || home == to {
			delete(m.samples, vpn)
			continue
		}
		if huge {
			m.Mem.SplitHuge(addr)
			if alive > 0 {
				m.chargeAll(threads, m.P.THPSplitCost/float64(alive), BucketTHPWork)
			}
		}
		if m.Mem.MigratePage(addr, to) {
			moved++
			// Same cost protocol as autoNUMAPass: the page copy stalls the
			// sampled accessor (everyone, when the accessor is unknown or
			// gone); the shootdown stalls every thread with a translation.
			accessor := m.threadByID(threads, m.samples[vpn].thread)
			if accessor != nil && !accessor.done {
				accessor.stall(m.P.AutoNUMAPageCost)
				m.profAdd(accessor, BucketPageMigration, m.P.AutoNUMAPageCost)
			} else if alive > 0 {
				m.chargeAll(threads, m.P.AutoNUMAPageCost/float64(alive), BucketPageMigration)
			}
			if alive > 0 {
				for _, t := range threads {
					if !t.done {
						t.tlb.InvalidatePage(vpn)
						t.stall(m.P.AutoNUMAShootdown / float64(alive))
						m.profAdd(t, BucketTLBShootdown, m.P.AutoNUMAShootdown/float64(alive))
					}
				}
			}
		}
		delete(m.samples, vpn)
	}
	return moved
}

func (a actuator) SetInterleaveWeights(w []float64) {
	a.window()
	a.m.Mem.SetInterleaveWeights(w)
}

// SetDaemon attaches fn as a placement daemon firing every period
// simulated cycles, between thread quanta — the same cadence discipline
// as AutoNUMA and khugepaged. The callback receives a read-only Telemetry
// view and an Actuator scoped to the window; a daemon that never actuates
// leaves the run byte-identical to one with no daemon attached (the
// observation-only invariant, tested like profiling's). Attaching also
// turns on access sampling and per-thread × node access accounting for
// Telemetry. period <= 0 defaults to one scheduler quantum. Pass fn nil
// to detach.
func (m *Machine) SetDaemon(period float64, fn func(*Telemetry, Actuator)) {
	if fn == nil {
		m.daemon = nil
		m.threadNodeAcc = nil
		return
	}
	if period <= 0 {
		period = m.P.Quantum
	}
	m.daemon = fn
	m.daemonPeriod = period
	m.nextDaemon = m.clock + period
	if m.threadNodeAcc == nil {
		m.threadNodeAcc = [][]uint64{}
	}
}

// noteThreadNode accumulates one DRAM access into the per-thread × node
// table behind Telemetry.ThreadNodeAccesses.
func (m *Machine) noteThreadNode(id int, home topology.NodeID) {
	m.growThreadNodeAcc(id)
	m.threadNodeAcc[id][home]++
}

// growThreadNodeAcc sizes the table through thread id. The scheduler
// pre-sizes at Run start, so every thread has a row from the first round.
func (m *Machine) growThreadNodeAcc(id int) {
	for id >= len(m.threadNodeAcc) {
		m.threadNodeAcc = append(m.threadNodeAcc, make([]uint64, m.Spec.Topo.Nodes()))
	}
}
