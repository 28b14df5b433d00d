package machine

import (
	"slices"

	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vmm"
)

// runDaemons fires the kernel background mechanisms whose periods have
// elapsed on the virtual clock: AutoNUMA balancing and the THP promoter.
// Both run between thread quanta (all workload threads are parked), so
// mutating thread state here is safe.
func (m *Machine) runDaemons(threads []*Thread) {
	for m.clock >= m.nextBalance {
		m.nextBalance += m.P.AutoNUMAPeriod
		if m.cfg.AutoNUMA {
			m.autoNUMAPass(threads)
		}
	}
	for m.clock >= m.nextTHPScan {
		m.nextTHPScan += m.P.THPPeriod
		if m.cfg.THP {
			m.thpPass(threads)
		}
	}
	// The attached placement daemon (SetDaemon) runs last so it observes
	// the kernel mechanisms' effects for this boundary. daemonThreads
	// marks the open actuation window; the callback may detach the daemon,
	// which the loop condition honours.
	for m.daemon != nil && m.clock >= m.nextDaemon {
		m.nextDaemon += m.daemonPeriod
		m.daemonThreads = threads
		m.daemon(&Telemetry{m: m}, actuator{m: m})
		m.daemonThreads = nil
	}
}

// autoNUMAPass models one round of the kernel's NUMA balancing: hint-fault
// sampling stalls every running thread, pages whose last two sampled
// accesses came from the same remote thread are migrated toward it, and
// occasionally a thread itself is moved toward its dominant node.
// Migrations cost page copies and TLB shootdowns; AutoNUMA does not weigh
// those costs against the locality benefit — the paper's central criticism.
func (m *Machine) autoNUMAPass(threads []*Thread) {
	alive := 0
	for _, t := range threads {
		if !t.done {
			alive++
		}
	}
	if alive == 0 {
		return
	}
	// Every page event this pass forces (splits, migrations) is AutoNUMA's
	// doing, not the application's.
	defer m.Mem.SetInitiator(m.Mem.SetInitiator(trace.InitAutoNUMA))
	// Scan tax: the pass write-protects the ranges it scanned, so each
	// thread re-faults the hot pages it touches next and loses its
	// translations. The sampled-page set stands in for the scanned hot
	// set; the cap bounds a single pass's damage.
	hot := float64(len(m.samples))
	if hot > 4096 {
		hot = 4096
	}
	for _, t := range threads {
		if !t.done {
			t.stall(m.P.AutoNUMASampleCost + m.P.AutoNUMAHintFault*hot)
			m.profAdd(t, BucketAutoNUMAScan, m.P.AutoNUMASampleCost+m.P.AutoNUMAHintFault*hot)
			t.tlb.Flush()
		}
	}
	// Deterministic iteration order over the sample map.
	vpns := make([]uint64, 0, len(m.samples))
	for vpn := range m.samples { //rangecheck:ok keys sorted immediately below
		vpns = append(vpns, vpn)
	}
	slices.Sort(vpns)

	migrated := 0
	for _, vpn := range vpns {
		if migrated >= m.P.AutoNUMAMaxMigrate {
			break
		}
		e := m.samples[vpn]
		if e.hits < 2 && !m.rng.Bernoulli(m.P.AutoNUMASharedLeak) {
			// The two-sample rule usually skips shared/cold pages, but the
			// kernel's sharing detection is imperfect: a fraction of hot
			// shared pages still migrate (and ping-pong) — the behaviour
			// the paper calls "improving locality at any cost".
			continue
		}
		addr := vpn << vmm.PageShift
		home, huge, ok := m.Mem.Locate(addr)
		if !ok || home == e.node {
			delete(m.samples, vpn)
			continue
		}
		// Huge pages must be split before they can migrate.
		if huge {
			m.Mem.SplitHuge(addr)
			m.chargeAll(threads, m.P.THPSplitCost/float64(alive), BucketTHPWork)
		}
		if m.Mem.MigratePage(addr, e.node) {
			migrated++
			// The page copy stalls the accessing thread; the shootdown
			// stalls everyone with a cached translation.
			if th := m.threadByID(threads, e.thread); th != nil && !th.done {
				th.stall(m.P.AutoNUMAPageCost)
				m.profAdd(th, BucketPageMigration, m.P.AutoNUMAPageCost)
			}
			for _, t := range threads {
				if !t.done {
					t.tlb.InvalidatePage(vpn)
					t.stall(m.P.AutoNUMAShootdown / float64(alive))
					m.profAdd(t, BucketTLBShootdown, m.P.AutoNUMAShootdown/float64(alive))
				}
			}
		}
		delete(m.samples, vpn)
	}
	if m.trace != nil {
		// One event per pass: Addr carries the pages migrated, Cost the
		// scan stall each running thread just paid.
		m.trace.Emit(trace.Event{
			Cycle:     m.clock,
			Kind:      trace.AutoNUMAScan,
			Initiator: trace.InitAutoNUMA,
			Thread:    -1,
			From:      -1,
			To:        -1,
			Addr:      uint64(migrated),
			Cost:      m.P.AutoNUMASampleCost + m.P.AutoNUMAHintFault*hot,
		})
	}

	// Task balancing: sometimes the daemon moves a whole thread toward the
	// node with the most traffic. Affinitized threads cannot be moved (the
	// balancer honours cpumasks), which is part of why pinning tames it.
	if m.cfg.Placement == PlaceNone && m.rng.Bernoulli(m.P.AutoNUMAThreadMove) {
		t := threads[m.rng.Intn(len(threads))]
		if !t.done {
			target := m.dominantNode()
			if target != t.Node() {
				per := m.Spec.CoresPerNode * m.Spec.ThreadsPerCore
				m.migrateThread(t, int(target)*per+m.rng.Intn(per), trace.InitAutoNUMA)
			}
		}
	}
}

// dominantNode returns the node with the most recent DRAM traffic.
func (m *Machine) dominantNode() topology.NodeID {
	best := 0
	for n := 1; n < len(m.dramWindow); n++ {
		if m.dramWindow[n] > m.dramWindow[best] {
			best = n
		}
	}
	return topology.NodeID(best)
}

func (m *Machine) threadByID(threads []*Thread, id int) *Thread {
	if id < 0 || id >= len(threads) {
		return nil
	}
	return threads[id]
}

func (m *Machine) chargeAll(threads []*Thread, cycles float64, b Bucket) {
	for _, t := range threads {
		if !t.done {
			t.stall(cycles)
			m.profAdd(t, b, cycles)
		}
	}
}

// thpPass models one khugepaged scan: eligible 512-page groups are
// collapsed into hugepages (up to the per-scan budget), briefly stalling
// the workload while pages are locked and copied.
func (m *Machine) thpPass(threads []*Thread) {
	alive := 0
	for _, t := range threads {
		if !t.done {
			alive++
		}
	}
	if alive == 0 {
		return
	}
	defer m.Mem.SetInitiator(m.Mem.SetInitiator(trace.InitKhugepaged))
	promoted := 0
	m.Mem.Reservations(func(r vmm.Range) {
		if promoted >= m.P.THPMaxPromote {
			return
		}
		m.Mem.HugeCandidates(r, func(base uint64) {
			if promoted >= m.P.THPMaxPromote {
				return
			}
			if m.Mem.PromoteHuge(base) {
				promoted++
				m.chargeAll(threads, m.P.THPPromoteCost/float64(alive), BucketTHPWork)
				// The collapse invalidates the 512 base translations.
				for _, t := range threads {
					if !t.done {
						t.tlb.InvalidatePage(base >> vmm.PageShift)
					}
				}
			}
		})
	})
}
