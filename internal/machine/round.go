package machine

import "maps"

// The round-based scheduler defers everything a thread's quantum can
// touch outside its own NUMA node to the round boundary, where it merges
// in a fixed order:
//
//   - counters, the DRAM contention window and AutoNUMA samples accumulate
//     per thread (Thread.counters, dramDelta, sampleDelta) and merge in
//     thread-id order;
//   - the last-writer directory is written in place, but each node group's
//     writes are undone when its turn ends and reapplied at the boundary
//     in node order (below), so coherence is immediate inside a node's
//     cache domain and round-granular across domains;
//   - anything that cannot be deferred — demand faults, page placement,
//     allocator calls — parks the thread into the round's serial phase
//     (Thread.parkSerial), which runs after the merge against base state.

// dirEntry is one logged directory entry: during the group's turn it
// holds the entry's round-start value, after the turn the value the group
// left there.
type dirEntry struct {
	idx uint32
	val uint32
}

// schedGroup is one round's worth of work for one NUMA node: the node's
// runnable threads (in thread-id order) and the log of directory entries
// the group wrote, each once, in first-write order.
type schedGroup struct {
	node    int
	threads []*Thread
	dirLog  []dirEntry
}

// beginGroup opens a group's turn with a fresh sequence number, which no
// entry of dirMark carries yet, and an empty log.
func (m *Machine) beginGroup(g *schedGroup) {
	m.dirSeq++
	if m.dirSeq == 0 {
		// Wrapped: marks from 2^32 turns ago would alias the new number.
		clear(m.dirMark)
		m.dirSeq = 1
	}
	g.dirLog = g.dirLog[:0]
}

// dirWrite sets directory entry idx to v. During a group's turn (g
// non-nil) the group's first write to an entry logs its round-start value.
func (m *Machine) dirWrite(g *schedGroup, idx uint64, v uint32) {
	if g != nil && m.dirMark[idx] != m.dirSeq {
		m.dirMark[idx] = m.dirSeq
		g.dirLog = append(g.dirLog, dirEntry{uint32(idx), m.writerDir[idx]})
	}
	m.writerDir[idx] = v
}

// endGroup closes a group's turn: every logged entry gets its round-start
// value back, so the next group sees the directory as the round began,
// and the log keeps the value the group left.
func (m *Machine) endGroup(g *schedGroup) {
	for i := range g.dirLog {
		e := &g.dirLog[i]
		e.val, m.writerDir[e.idx] = m.writerDir[e.idx], e.val
	}
}

// mergeDir publishes the round's directory writes group by group in node
// order, so a line written by two nodes in one round deterministically
// keeps the higher node's entry.
func (m *Machine) mergeDir(groups []*schedGroup) {
	for _, g := range groups {
		for _, e := range g.dirLog {
			m.writerDir[e.idx] = e.val
		}
	}
}

// buildGroups partitions the runnable threads by current NUMA node into
// node-ascending groups, thread-id order within each.
func (m *Machine) buildGroups(runnable []*Thread) []*schedGroup {
	m.groups = m.groups[:0]
	for node, g := range m.groupPool {
		g.threads = g.threads[:0]
		for _, t := range runnable {
			if int(t.node) == node {
				g.threads = append(g.threads, t)
			}
		}
		if len(g.threads) > 0 {
			m.groups = append(m.groups, g)
		}
	}
	return m.groups
}

// runGroup executes one scheduling quantum for each thread of the group,
// in thread-id order. Threads that hit a serializing operation park with
// needSerial set and finish their quantum in the round's serial phase
// instead.
func (m *Machine) runGroup(g *schedGroup) {
	m.beginGroup(g)
	for _, t := range g.threads {
		t.quantumStart = t.cycles
		t.group = g
		t.resume <- struct{}{}
		<-t.parked
		t.group = nil
		if !t.needSerial {
			m.finishQuantum(t, t.quantumStart)
		}
	}
	m.endGroup(g)
}

// finishQuantum applies the scheduler's end-of-quantum accounting:
// oversubscribed contexts time-share, so wall time inflates by the
// context's load and each switch re-pollutes the private caches.
func (m *Machine) finishQuantum(t *Thread, start float64) {
	load := m.hwLoad[t.hw]
	if load < 1 {
		load = 1
	}
	t.wall += (t.cycles - start) * float64(load)
	if m.prof != nil && load > 1 {
		// The quantum's charges were attributed at their sources; the
		// inflation beyond them is time spent descheduled.
		m.prof.add(t.id, t.node, BucketTimeshare, (t.cycles-start)*float64(load-1))
	}
	if load > 1 {
		t.l1.Flush()
		t.tlb.Flush()
	}
}

// mergeThreadDeltas folds one thread's round-local accumulators into the
// machine: counters, the contention window, and AutoNUMA samples. A
// thread's sample keys are distinct, so their writes commute and map order
// cannot leak into the simulation; every reader of m.samples sorts its
// keys first.
func (m *Machine) mergeThreadDeltas(t *Thread) {
	m.counters.TLBMisses += t.counters.TLBMisses
	m.counters.CacheAccesses += t.counters.CacheAccesses
	m.counters.CacheMisses += t.counters.CacheMisses
	m.counters.LocalAccesses += t.counters.LocalAccesses
	m.counters.RemoteAccesses += t.counters.RemoteAccesses
	t.counters = Counters{}
	for i, v := range t.dramDelta {
		if v != 0 {
			m.dramWindow[i] += v
			t.dramDelta[i] = 0
		}
	}
	m.windowTotal += t.winDelta
	m.remoteWin += t.remoteDelta
	t.winDelta, t.remoteDelta = 0, 0
	maps.Copy(m.samples, t.sampleDelta)
	clear(t.sampleDelta)
}
