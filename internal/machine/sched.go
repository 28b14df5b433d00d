package machine

import (
	"repro/internal/cache"
	"repro/internal/topology"
	"repro/internal/trace"
)

// nodeOf maps a hardware context index to its NUMA node. Contexts are
// numbered node-major: node * coresPerNode * threadsPerCore + core *
// threadsPerCore + smt.
func (m *Machine) nodeOf(hw int) topology.NodeID {
	per := m.Spec.CoresPerNode * m.Spec.ThreadsPerCore
	return topology.NodeID(hw / per)
}

// initialHW returns thread i's starting hardware context under the
// configured placement strategy.
func (m *Machine) initialHW(i int) int {
	nodes := m.Spec.Topo.Nodes()
	per := m.Spec.CoresPerNode * m.Spec.ThreadsPerCore
	switch m.cfg.Placement {
	case PlaceSparse:
		// Round-robin across nodes first, then across contexts in a node.
		node := i % nodes
		slot := (i / nodes) % per
		return node*per + slot
	case PlaceDense:
		// Fill node 0 completely before node 1, and so on.
		return i % m.hwThreads
	default:
		// The OS initially balances across domains but without perfect
		// spreading; power-of-two-choices models its load balancer: pick
		// two random contexts, take the less loaded one.
		a := m.rng.Intn(m.hwThreads)
		b := m.rng.Intn(m.hwThreads)
		if m.hwLoad[b] < m.hwLoad[a] {
			return b
		}
		return a
	}
}

// Run executes body on n simulated threads under the active configuration
// and returns the run's result.
//
// The scheduler is a deterministic round-based loop: each round, every
// runnable thread executes one scheduling quantum, grouped by NUMA node
// (node-ascending, thread-id order within a node), and cross-thread
// effects merge at the round boundary — where the kernel daemons also
// fire on the global virtual clock (see round.go). Quanta execute one at
// a time on the host, so a body may share Go state across threads without
// synchronization.
func (m *Machine) Run(n int, body func(t *Thread)) Result {
	if n <= 0 {
		n = m.cfg.Threads
	}
	nodes := m.Spec.Topo.Nodes()
	threads := make([]*Thread, n)
	for i := range threads {
		t := &Thread{
			m:           m,
			id:          i,
			hw:          m.initialHW(i),
			l1:          cache.New(m.Spec.L1BytesPerCore/m.Spec.LineSize, 8),
			tlb:         cache.NewTLB(m.Spec.TLB4KEntries, m.Spec.TLB2MEntries, 4),
			rng:         m.rng.Derive(uint64(i) + 1),
			dramDelta:   make([]float64, nodes),
			sampleDelta: make(map[uint64]sampleEntry),
			resume:      make(chan struct{}),
			parked:      make(chan struct{}),
		}
		t.node = m.nodeOf(t.hw)
		m.hwLoad[t.hw]++
		threads[i] = t
		go func() {
			<-t.resume
			body(t)
			t.done = true
			t.parked <- struct{}{}
		}()
	}
	m.active = n
	if m.groupPool == nil {
		m.groupPool = make([]*schedGroup, nodes)
		for i := range m.groupPool {
			m.groupPool[i] = &schedGroup{node: i}
		}
	}
	// Per-thread tables get a row for every thread from the first round.
	if m.prof != nil {
		m.prof.thread(n - 1)
	}
	if m.daemon != nil {
		m.growThreadNodeAcc(n - 1)
	}

	runnable := make([]*Thread, n)
	copy(runnable, threads)
	for len(runnable) > 0 {
		groups := m.buildGroups(runnable)
		for _, g := range groups {
			m.runGroup(g)
		}
		// Round boundary. Publish the groups' directory writes in node
		// order, then run the serial continuations: threads that parked on
		// a serializing operation (demand fault, allocator call) finish
		// their quantum one at a time against base state, in thread-id
		// order.
		m.mergeDir(groups)
		for _, t := range runnable {
			if !t.needSerial {
				continue
			}
			t.needSerial = false
			t.resume <- struct{}{}
			<-t.parked
			m.current = nil
			m.finishQuantum(t, t.quantumStart)
		}
		for _, t := range runnable {
			m.mergeThreadDeltas(t)
		}
		for _, t := range runnable {
			if t.wall > m.clock {
				m.clock = t.wall
			}
		}
		if m.windowTotal >= contentionWindow {
			m.refreshContention()
		}
		m.runDaemons(threads)
		m.pumpSnapshots()
		live := runnable[:0]
		for _, t := range runnable {
			if t.done {
				m.hwLoad[t.hw]--
				m.active--
				if m.prof != nil {
					m.prof.thread(t.id).wall += t.wall
				}
				continue
			}
			live = append(live, t)
		}
		runnable = live
		for _, t := range runnable {
			m.osSchedule(t)
		}
	}

	var res Result
	for _, t := range threads {
		if t.wall > res.WallCycles {
			res.WallCycles = t.wall
		}
		m.counters.ThreadMigrations += t.migrations
	}
	res.Counters = m.Counters()
	res.Alloc = m.Alloc.Stats()
	res.RSSBytes = m.Mem.MappedBytes()
	return res
}

// osSchedule applies the OS scheduler's migration behaviour to a thread
// that just finished a quantum. Only PlaceNone threads migrate; Sparse and
// Dense placements are pinned.
func (m *Machine) osSchedule(t *Thread) {
	if m.cfg.Placement != PlaceNone {
		return
	}
	if !m.rng.Bernoulli(m.migRate) {
		return
	}
	newHW := m.rng.Intn(m.hwThreads)
	if newHW == t.hw {
		return
	}
	m.migrateThread(t, newHW, trace.InitOS)
}

// migrateThread moves t to a new hardware context, invalidating its
// core-private state and charging the reschedule cost. by tags the traced
// event with the mechanism that decided the move (OS scheduler, AutoNUMA
// balancing, or the orchestrator's actuator).
func (m *Machine) migrateThread(t *Thread, newHW int, by trace.Initiator) {
	from := m.nodeOf(t.hw)
	m.hwLoad[t.hw]--
	t.hw = newHW
	t.node = m.nodeOf(newHW)
	m.hwLoad[newHW]++
	t.l1.Flush()
	t.tlb.Flush()
	t.stall(m.P.MigrationCycles)
	m.profAdd(t, BucketThreadMigration, m.P.MigrationCycles)
	t.migrations++
	if m.trace != nil {
		m.trace.Emit(trace.Event{
			Cycle:     t.cycles,
			Kind:      trace.ThreadMigration,
			Initiator: by,
			Thread:    int32(t.id),
			From:      int16(from),
			To:        int16(m.nodeOf(newHW)),
			Cost:      m.P.MigrationCycles,
		})
	}
}

// maybeYield parks the thread if its quantum is exhausted, handing control
// back to the scheduler loop.
func (t *Thread) maybeYield() {
	if t.cycles-t.sliceBase < t.m.P.Quantum {
		return
	}
	t.sliceBase = t.cycles
	t.parked <- struct{}{}
	<-t.resume
}
