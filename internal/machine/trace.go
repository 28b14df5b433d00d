package machine

import "repro/internal/trace"

// Snapshot is one periodic sample of the counter profile, stamped with the
// virtual cycle it was due at. A series of snapshots turns end-of-run
// totals into time series (LAR over time, fault and migration bursts) —
// the raw material for Figure 5b-style plots.
type Snapshot struct {
	Cycle    float64  `json:"cycle"`
	Counters Counters `json:"counters"`
}

// Trace returns the attached event sink, nil when tracing is off.
func (m *Machine) Trace() trace.Sink { return m.trace }

// traceNow supplies the virtual timestamp and acting thread for an event:
// the running thread's cycle account during a quantum, the machine's
// global clock (thread -1) for daemon work between quanta.
func (m *Machine) traceNow() (cycle float64, thread int32) {
	if t := m.current; t != nil {
		return t.cycles, int32(t.id)
	}
	return m.clock, -1
}

// wireAllocHooks re-installs the allocator lock-wait hook, which serves
// both the event trace and the cycle-attribution profiler; called whenever
// the sink, the profiler or the allocator changes (Configure rebuilds the
// allocator).
func (m *Machine) wireAllocHooks() {
	if m.Alloc == nil {
		return
	}
	h, ok := m.Alloc.(interface{ SetLockWaitHook(func(w float64)) })
	if !ok {
		return
	}
	if m.trace == nil && m.prof == nil {
		h.SetLockWaitHook(nil)
		return
	}
	h.SetLockWaitHook(func(w float64) {
		if m.prof != nil {
			m.pendingLockWait += w
		}
		if m.trace == nil {
			return
		}
		cyc, th := m.traceNow()
		m.trace.Emit(trace.Event{
			Cycle:     cyc,
			Kind:      trace.AllocStall,
			Initiator: trace.InitAlloc,
			Thread:    th,
			From:      -1,
			To:        -1,
			Cost:      w,
		})
	})
}

// maxSnapshots bounds the sample buffer; when it fills, the series is
// thinned deterministically (every other sample dropped, cadence doubled),
// so any run yields at most this many points regardless of length.
const maxSnapshots = 64

// Snapshots returns a copy of the samples taken since Observe started the
// series. Samples are taken at scheduling points (between thread quanta),
// so each carries the counter state at the first scheduling event at or
// after its stamp. Callers own the returned slice: neither further
// sampling nor a snapshot restart mutates it, and mutating it does not
// perturb the machine.
func (m *Machine) Snapshots() []Snapshot {
	return append([]Snapshot(nil), m.snaps...)
}

// pumpSnapshots takes due samples; the scheduler calls it between quanta.
func (m *Machine) pumpSnapshots() {
	if m.snapEvery <= 0 {
		return
	}
	for m.clock >= m.nextSnap {
		m.snaps = append(m.snaps, Snapshot{Cycle: m.nextSnap, Counters: m.Counters()})
		m.nextSnap += m.snapEvery
		if len(m.snaps) >= maxSnapshots {
			// Thin by keeping the EVEN indices: the first stamp of the
			// series (the first cadence tick) survives every round, and the
			// kept stamps stay uniformly spaced at the doubled cadence, so
			// re-anchoring off the last kept stamp continues the arithmetic
			// sequence without a gap or overlap.
			kept := m.snaps[:0]
			for i := 0; i < len(m.snaps); i += 2 {
				kept = append(kept, m.snaps[i])
			}
			m.snaps = kept
			m.snapEvery *= 2
			m.nextSnap = m.snaps[len(m.snaps)-1].Cycle + m.snapEvery
		}
	}
}
