package machine

import (
	"testing"

	"repro/internal/trace"
)

// observeWorkload is the fixed workload the Observe-equivalence tests
// run: per-thread allocations with strided writes across pages, enough
// to fault pages, miss caches and stall the allocator.
func observeWorkload(m *Machine) {
	m.Run(4, func(th *Thread) {
		base := th.Malloc(1 << 18)
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < 64; i++ {
				th.Write(base+uint64(i)*4096, 64)
			}
		}
		th.Read(base, 64)
		th.Free(base, 1<<18)
	})
}

func observeMachine() *Machine {
	m := NewB()
	cfg := DefaultConfig(4)
	cfg.AutoNUMA = true
	cfg.THP = true
	m.Configure(cfg)
	return m
}

// TestObserveSubsetsMatchBaseline runs every subset of ObserveOptions
// {Trace, Profile, SnapEvery, Spans} and asserts each attaches exactly the
// instruments it asks for while the simulated results stay bit-identical
// to the uninstrumented baseline, because instruments only observe.
func TestObserveSubsetsMatchBaseline(t *testing.T) {
	base := observeMachine()
	observeWorkload(base)
	baseCtr := base.Counters()
	baseClock := base.Observe(ObserveOptions{}).Clock()

	const snapEvery = 50_000
	for mask := 0; mask < 16; mask++ {
		o := ObserveOptions{
			Trace:   mask&1 != 0,
			Profile: mask&2 != 0,
			Spans:   mask&8 != 0,
		}
		if mask&4 != 0 {
			o.SnapEvery = snapEvery
		}

		mo := observeMachine()
		tel := mo.Observe(o)
		observeWorkload(mo)

		if mo.Counters() != baseCtr {
			t.Fatalf("mask %04b: counters diverged from baseline\nobserve: %+v\nbase:    %+v",
				mask, mo.Counters(), baseCtr)
		}
		if tel.Clock() != baseClock {
			t.Fatalf("mask %04b: clock diverged: observe %v, base %v", mask, tel.Clock(), baseClock)
		}

		if o.Trace && len(tel.Events()) == 0 {
			t.Errorf("mask %04b: traced run recorded no events", mask)
		}
		if !o.Trace && tel.Events() != nil {
			t.Errorf("mask %04b: untraced run has events", mask)
		}
		if wantProf := o.Profile || o.Spans; (tel.Profile() != nil) != wantProf {
			t.Errorf("mask %04b: profile presence %v, want %v", mask, tel.Profile() != nil, wantProf)
		}
		if got := len(tel.Snapshots()) > 0; got != (o.SnapEvery > 0) {
			t.Errorf("mask %04b: took snapshots %v, want %v", mask, got, o.SnapEvery > 0)
		}
		if mo.SpansEnabled() != o.Spans {
			t.Errorf("mask %04b: SpansEnabled = %v, want %v", mask, mo.SpansEnabled(), o.Spans)
		}
	}
}

// TestInitiatorCoverage pins the initiator tags at the machine seam:
// scenarios with the OS scheduler, AutoNUMA, khugepaged and allocator
// contention active must record at least one event for each initiator
// the machine can drive (demand faults, OS migrations, AutoNUMA
// scans/migrations, khugepaged collapses, allocator stalls). The
// orchestrator initiator is pinned by the orchestrator package's own
// tests — attaching one here would be an import cycle.
func TestInitiatorCoverage(t *testing.T) {
	// Scenario 1: four threads hammering private 4MiB regions long enough
	// for several AutoNUMA passes (12M-cycle period) — demand faults from
	// small allocations, OS load balancing, AutoNUMA scans and page
	// migrations, allocator stalls.
	m := observeMachine()
	rec := trace.NewRecorder()
	m.Observe(ObserveOptions{Sink: rec})
	m.Run(4, func(th *Thread) {
		small := th.Malloc(64 << 10)
		for i := 0; i < 16; i++ {
			th.Write(small+uint64(i)*4096, 64)
		}
		base := th.Malloc(4 << 20)
		for th.Cycles() < 40_000_000 {
			for i := 0; i < 512; i++ {
				th.Write(base+uint64(i)*4096, 64)
			}
			th.Charge(500_000)
		}
		th.Free(base, 4<<20)
		th.Free(small, 64<<10)
	})

	// Scenario 2: with the THP fault path off (madvise-style) a base-page
	// carpet leaves khugepaged uniform 512-page groups to collapse.
	m2 := NewB()
	m2.Configure(DefaultConfig(1))
	m2.Mem.SetTHP(false)
	rec2 := trace.NewRecorder()
	m2.Observe(ObserveOptions{Sink: rec2})
	m2.Run(1, func(th *Thread) {
		base := th.Malloc(8 << 20)
		for i := 0; i < 2048; i++ {
			th.Write(base+uint64(i)*4096, 64)
		}
		for th.Cycles() < 10_000_000 {
			th.Charge(500_000)
		}
	})

	checks := []struct {
		rec  *trace.Recorder
		kind trace.Kind
		init trace.Initiator
	}{
		{rec, trace.PageFault, trace.InitDemand},
		{rec, trace.ThreadMigration, trace.InitOS},
		{rec, trace.AutoNUMAScan, trace.InitAutoNUMA},
		{rec, trace.PageMigration, trace.InitAutoNUMA},
		{rec, trace.AllocStall, trace.InitAlloc},
		{rec2, trace.HugeCollapse, trace.InitKhugepaged},
	}
	for _, c := range checks {
		if c.rec.CountBy(c.kind, c.init) == 0 {
			t.Errorf("no %s event with initiator %s recorded", c.kind, c.init)
		}
	}
	// No event may carry an initiator outside the declared set.
	for _, e := range append(rec.Events, rec2.Events...) {
		if e.Initiator < trace.InitDemand || e.Initiator > trace.InitAlloc {
			t.Errorf("event %s carries out-of-range initiator %d", e.Kind, e.Initiator)
		}
	}
}
