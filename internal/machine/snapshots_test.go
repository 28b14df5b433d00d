package machine

import "testing"

// pumpTo advances the machine's virtual clock and takes every due sample,
// the way the scheduler does between quanta.
func pumpTo(m *Machine, cycle float64) {
	m.clock = cycle
	m.pumpSnapshots()
}

// TestSnapshotThinningKeepsFirstStamp drives the snapshot series through
// several thinning rounds and checks the invariants the Fig 5b time series
// depends on: the first cadence tick is never dropped, stamps stay an
// arithmetic sequence at the current cadence (strictly increasing, no gap
// or overlap around a thinning round), and the series covers the whole run
// up to its cap. The pre-fix thinning kept the odd indices, which lost the
// series' very first sample on the first round.
func TestSnapshotThinningKeepsFirstStamp(t *testing.T) {
	const every = 10.0
	m := NewA()
	m.Observe(ObserveOptions{SnapEvery: every})

	// Far enough for three thinning rounds (64 -> 32 at cadence 20, refill
	// to 64 -> 32 at 40, refill -> 32 at 80), one quantum at a time so the
	// pump sees both single-sample and multi-sample advances.
	const end = every * 64 * 8
	for c := every; c <= end; c += every {
		pumpTo(m, c)
	}

	snaps := m.Snapshots()
	if len(snaps) == 0 || len(snaps) > maxSnapshots {
		t.Fatalf("series length %d, want 1..%d", len(snaps), maxSnapshots)
	}
	if m.snapEvery <= every {
		t.Fatalf("cadence %v never doubled; the run did not thin", m.snapEvery)
	}
	if snaps[0].Cycle != every {
		t.Errorf("first stamp %v, want the first cadence tick %v", snaps[0].Cycle, every)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Cycle <= snaps[i-1].Cycle {
			t.Fatalf("stamps not strictly increasing at %d: %v after %v",
				i, snaps[i].Cycle, snaps[i-1].Cycle)
		}
		if got := snaps[i].Cycle - snaps[i-1].Cycle; got != m.snapEvery {
			t.Errorf("stamp spacing %v at %d, want the current cadence %v", got, i, m.snapEvery)
		}
	}
	// Coverage: the series reaches the end of the run (no sample is due
	// and unsampled) and the next sample is genuinely in the future.
	last := snaps[len(snaps)-1].Cycle
	if last < end-m.snapEvery {
		t.Errorf("last stamp %v leaves more than one cadence (%v) of the run uncovered (end %v)",
			last, m.snapEvery, end)
	}
	if m.nextSnap <= end {
		t.Errorf("nextSnap %v is not past the clock %v", m.nextSnap, end)
	}
}

// TestSnapshotsNotAliased pins the ownership contract of Snapshots: a
// series held by a caller must survive a snapshot restart (the pre-fix
// restart truncated the shared backing array in place, so the next phase's
// samples clobbered the caller's copy), and mutating the returned slice
// must not write through into the machine.
func TestSnapshotsNotAliased(t *testing.T) {
	const every = 10.0
	m := NewA()
	m.Observe(ObserveOptions{SnapEvery: every})
	pumpTo(m, 5*every)

	first := m.Snapshots()
	if len(first) != 5 {
		t.Fatalf("first series has %d samples, want 5", len(first))
	}
	saved := append([]Snapshot(nil), first...)

	// Restart and run a second phase over the shared storage's range.
	m.Observe(ObserveOptions{SnapEvery: every})
	pumpTo(m, 12*every)

	for i := range first {
		if first[i] != saved[i] {
			t.Fatalf("caller-held series clobbered by restart at %d: %+v, want %+v",
				i, first[i], saved[i])
		}
	}
	second := m.Snapshots()
	if len(second) != 7 {
		t.Fatalf("second series has %d samples, want 7", len(second))
	}
	if second[0].Cycle != 6*every {
		t.Errorf("second series starts at %v, want %v", second[0].Cycle, 6*every)
	}

	// The returned slice is the caller's: writes must not reach the machine.
	second[0].Cycle = -1
	if got := m.Snapshots()[0].Cycle; got != 6*every {
		t.Errorf("mutating a returned series changed the machine's copy: %v", got)
	}
}
