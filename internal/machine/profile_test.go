package machine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/vmm"
)

// profileConfigs mirrors the configuration space the sweep tests exercise:
// all three machines, every placement and policy, daemons on and off,
// contended allocators, and oversubscription.
func profileConfigs() []struct {
	name    string
	machine func() *Machine
	cfg     RunConfig
	threads int
} {
	var out []struct {
		name    string
		machine func() *Machine
		cfg     RunConfig
		threads int
	}
	add := func(name string, mk func() *Machine, cfg RunConfig, threads int) {
		out = append(out, struct {
			name    string
			machine func() *Machine
			cfg     RunConfig
			threads int
		}{name, mk, cfg, threads})
	}
	add("A-default", NewA, DefaultConfig(16), 16)
	add("A-tuned", NewA, TunedConfig(16), 16)
	add("B-sparse-ft", NewB, testConfig(4), 4)
	add("C-sparse-ft", NewC, testConfig(8), 8)
	cfg := testConfig(4)
	cfg.Placement = PlaceDense
	add("B-dense", NewB, cfg, 4)
	cfg = testConfig(4)
	cfg.Policy = vmm.Interleave
	add("B-interleave", NewB, cfg, 4)
	cfg = testConfig(4)
	cfg.Policy = vmm.Preferred
	add("B-preferred", NewB, cfg, 4)
	cfg = testConfig(4)
	cfg.AutoNUMA = true
	add("A-autonuma", NewA, cfg, 4)
	cfg = testConfig(4)
	cfg.THP = true
	add("C-thp", NewC, cfg, 4)
	// Migration-heavy: OS-scheduled threads with a migration-prone seed.
	cfg = DefaultConfig(16)
	cfg.Seed = 3
	add("A-migratey", NewA, cfg, 16)
	// Oversubscription: 64 threads on Machine B's 32 contexts.
	cfg = testConfig(64)
	cfg.Placement = PlaceDense
	add("B-oversubscribed", NewB, cfg, 64)
	for _, name := range []string{"jemalloc", "tcmalloc", "tbbmalloc", "mcmalloc"} {
		cfg = testConfig(8)
		cfg.Allocator = name
		add("B-"+name, NewB, cfg, 8)
	}
	return out
}

// profileBody exercises every charge site: allocation (work + lock
// contention), demand faults, cache hits and misses at every level, shared
// writes (coherence), pure-CPU work, and frees (THP churn / splits).
func profileBody(shared *uint64) func(*Thread) {
	return func(t *Thread) {
		if t.ID() == 0 {
			*shared = t.Malloc(1 << 20)
			for off := uint64(0); off < 1<<20; off += 64 {
				t.Write(*shared+off, 8)
			}
		}
		base := t.Malloc(512 << 10)
		for pass := 0; pass < 2; pass++ {
			for off := uint64(0); off < 512<<10; off += 64 {
				t.Write(base+off, 8)
			}
		}
		t.Charge(5000)
		if *shared != 0 {
			for off := uint64(0); off < 256<<10; off += 64 {
				t.Read(*shared+off, 8)
			}
		}
		t.Free(base, 512<<10)
	}
}

// TestProfileAccountingComplete is the accounting-completeness invariant:
// for every configuration, each thread's bucket sum reconstructs its wall
// cycles, and the node access matrix agrees exactly with the Local/Remote
// perf counters.
func TestProfileAccountingComplete(t *testing.T) {
	for _, tc := range profileConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.machine()
			m.Configure(tc.cfg)
			m.Observe(ObserveOptions{Profile: true})
			var shared uint64
			res := m.Run(tc.threads, profileBody(&shared))
			p := m.Profile()
			if p == nil {
				t.Fatal("Profile() == nil with profiling on")
			}
			if len(p.Threads) != tc.threads {
				t.Fatalf("profiled %d threads, ran %d", len(p.Threads), tc.threads)
			}
			// Per-thread: buckets sum to wall cycles. The bucket partition
			// sums in a different association order than the thread's single
			// running total, so allow relative float error.
			var maxWall float64
			for _, tb := range p.Threads {
				var sum float64
				for _, c := range tb.Buckets {
					sum += c
				}
				if diff := math.Abs(sum - tb.WallCycles); diff > 1e-6*math.Max(1, tb.WallCycles) {
					t.Errorf("thread %d: bucket sum %v != wall %v (diff %v)",
						tb.Thread, sum, tb.WallCycles, diff)
				}
				if tb.WallCycles > maxWall {
					maxWall = tb.WallCycles
				}
			}
			if maxWall != res.WallCycles {
				t.Errorf("max thread wall %v != result wall %v", maxWall, res.WallCycles)
			}
			// Matrix: diagonal counts local accesses, off-diagonal remote,
			// exactly (integers).
			var diag, offd uint64
			for i, row := range p.Matrix {
				for j, n := range row {
					if i == j {
						diag += n
					} else {
						offd += n
					}
				}
			}
			c := res.Counters
			if diag != c.LocalAccesses {
				t.Errorf("matrix diagonal %d != LocalAccesses %d", diag, c.LocalAccesses)
			}
			if offd != c.RemoteAccesses {
				t.Errorf("matrix off-diagonal %d != RemoteAccesses %d", offd, c.RemoteAccesses)
			}
			var rows uint64
			for _, r := range p.MatrixRowSums() {
				rows += r
			}
			if rows != c.LocalAccesses+c.RemoteAccesses {
				t.Errorf("matrix row sums %d != Local+Remote %d", rows, c.LocalAccesses+c.RemoteAccesses)
			}
			// Node breakdowns partition the same cycles as thread breakdowns.
			var threadTot, nodeTot float64
			for _, c := range p.Totals() {
				threadTot += c
			}
			for _, nb := range p.Nodes {
				for _, c := range nb.Buckets {
					nodeTot += c
				}
			}
			if diff := math.Abs(threadTot - nodeTot); diff > 1e-6*math.Max(1, threadTot) {
				t.Errorf("thread totals %v != node totals %v", threadTot, nodeTot)
			}
		})
	}
}

// TestProfilingIsObservationOnly: the same seed yields bit-identical
// results with profiling on and off — attribution must never perturb the
// simulation.
func TestProfilingIsObservationOnly(t *testing.T) {
	run := func(profiled bool) Result {
		m := NewA()
		cfg := DefaultConfig(8)
		cfg.Seed = 42
		m.Configure(cfg)
		m.Observe(ObserveOptions{Profile: profiled})
		var shared uint64
		return m.Run(8, profileBody(&shared))
	}
	on, off := run(true), run(false)
	if on.WallCycles != off.WallCycles {
		t.Errorf("profiling changed wall cycles: on=%v off=%v", on.WallCycles, off.WallCycles)
	}
	if on.Counters != off.Counters {
		t.Errorf("profiling changed counters:\non:  %+v\noff: %+v", on.Counters, off.Counters)
	}
}

func TestProfileNilWhenOff(t *testing.T) {
	m := NewB()
	m.Configure(testConfig(2))
	if m.Profile() != nil {
		t.Error("profiling should default off")
	}
	m.Run(2, scanBody(256<<10, 1))
	if p := m.Profile(); p != nil {
		t.Errorf("Profile() = %v with profiling off, want nil", p)
	}
}

func TestProfileResetAndReattach(t *testing.T) {
	m := NewB()
	m.Configure(testConfig(2))
	m.Observe(ObserveOptions{Profile: true})
	m.Run(2, scanBody(256<<10, 1))
	if m.Profile().WallCycles() == 0 {
		t.Fatal("no cycles attributed")
	}
	m.ResetProfile()
	if w := m.Profile().WallCycles(); w != 0 {
		t.Errorf("wall after reset = %v, want 0", w)
	}
	m.Run(2, scanBody(256<<10, 1))
	m.Observe(ObserveOptions{Profile: true})
	if w := m.Profile().WallCycles(); w != 0 {
		t.Errorf("wall after re-observing = %v, want a fresh accumulation", w)
	}
}

func TestProfileSnapshotIsStable(t *testing.T) {
	// The exported Profile must not alias live accumulation state.
	m := NewB()
	m.Configure(testConfig(2))
	m.Observe(ObserveOptions{Profile: true})
	m.Run(2, scanBody(256<<10, 1))
	p := m.Profile()
	before := p.WallCycles()
	m.Run(2, scanBody(256<<10, 1))
	if p.WallCycles() != before {
		t.Error("earlier Profile snapshot mutated by a later run")
	}
	if m.Profile().WallCycles() <= before {
		t.Error("second run attributed nothing")
	}
}

func TestBucketNames(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Buckets() {
		name := b.String()
		if name == "" || seen[name] {
			t.Errorf("bucket %d: bad or duplicate name %q", int(b), name)
		}
		seen[name] = true
	}
	if got := fmt.Sprint(Bucket(NumBuckets + 1)); got == "" {
		t.Error("out-of-range bucket should still format")
	}
}
