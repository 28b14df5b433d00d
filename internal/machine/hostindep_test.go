package machine

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// The TestRunParallel* tests keep the names of the host-parallel round
// engine they were written for. Each simulated thread is still a host
// goroutine handed the machine one quantum at a time, so they now check
// that the serial engine's output does not depend on how many host cores
// those goroutines may run on: GOMAXPROCS 1 against 4, the engine-level
// counterpart of CI's equivalence job.

// hostEquivBody mixes the access shapes the sweep tests use (dense runs,
// strides, random scalar probes, allocation, pure-CPU work) with
// cross-node sharing of one region, so the node groups' directory logs
// overlap within every round.
func hostEquivBody(shared uint64) func(*Thread) {
	const bufBytes = 1 << 20
	return func(t *Thread) {
		base := t.Malloc(bufBytes)
		t.WriteRun(base, 8, bufBytes/8)
		t.ReadRun(base, 64, bufBytes/64)
		t.ReadStrided(base, 8, 4096, bufBytes/4096)
		t.WriteStrided(base, 16, 192, 1024)
		rng := t.RNG()
		for i := 0; i < 512; i++ {
			off := rng.Uint64n(bufBytes/8) * 8
			t.Read(base+off, 8)
		}
		t.Charge(3000)
		// Cross-node traffic: every thread reads and rewrites the head of
		// the shared region, taking lines other node groups own.
		t.ReadRun(shared, 8, 2048)
		t.WriteRun(shared, 8, 2048)
		t.Free(base, bufBytes)
	}
}

// runAtProcs drives one full profiled and traced execution of
// hostEquivBody with GOMAXPROCS set to procs, and returns everything
// observable.
func runAtProcs(mk func() *Machine, cfg RunConfig, threads, procs int) (Result, *Profile, []trace.Event) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	m := mk()
	m.Configure(cfg)
	rec := trace.NewRecorder()
	m.Observe(ObserveOptions{Sink: rec, Profile: true})
	var shared uint64
	m.Run(1, func(t *Thread) {
		shared = t.Malloc(1 << 20)
		t.WriteRun(shared, 64, (1<<20)/64)
	})
	res := m.Run(threads, hostEquivBody(shared))
	return res, m.Profile(), rec.Events
}

// TestRunParallelEquivalence checks, across the full configuration sweep
// (all machines, placements, policies, allocators, daemons), that a run
// at GOMAXPROCS 4 reproduces the GOMAXPROCS 1 run bit for bit: result,
// counters, cycle attribution and the complete trace stream.
func TestRunParallelEquivalence(t *testing.T) {
	for _, tc := range profileConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			sRes, sProf, sEvents := runAtProcs(tc.machine, tc.cfg, tc.threads, 1)
			pRes, pProf, pEvents := runAtProcs(tc.machine, tc.cfg, tc.threads, 4)
			if !reflect.DeepEqual(sRes, pRes) {
				t.Errorf("results diverge:\nprocs=1: %+v\nprocs=4: %+v", sRes, pRes)
			}
			if !reflect.DeepEqual(sProf, pProf) {
				t.Error("cycle profiles diverge")
			}
			if len(sEvents) != len(pEvents) {
				t.Fatalf("trace streams diverge: %d vs %d events", len(sEvents), len(pEvents))
			}
			for i := range sEvents {
				if sEvents[i] != pEvents[i] {
					t.Fatalf("trace event %d diverges:\nprocs=1: %+v\nprocs=4: %+v",
						i, sEvents[i], pEvents[i])
				}
			}
		})
	}
}

// TestRunParallelLargeTopologies runs the big presets (D and E have 8 and
// 16 node groups, so every round takes that many group turns and directory
// logs) at GOMAXPROCS 1 and 4 and cross-checks the two.
func TestRunParallelLargeTopologies(t *testing.T) {
	for _, mk := range []func() *Machine{NewD, NewE} {
		m := mk()
		t.Run(m.Spec.Name, func(t *testing.T) {
			threads := m.Spec.Topo.Nodes() * 2
			cfg := testConfig(threads)
			sRes, sProf, _ := runAtProcs(mk, cfg, threads, 1)
			pRes, pProf, _ := runAtProcs(mk, cfg, threads, 4)
			if !reflect.DeepEqual(sRes, pRes) {
				t.Errorf("results diverge:\nprocs=1: %+v\nprocs=4: %+v", sRes, pRes)
			}
			if !reflect.DeepEqual(sProf, pProf) {
				t.Error("cycle profiles diverge")
			}
		})
	}
}

// TestRunParallelRace exists for the race detector: it drives the thread
// goroutines through every effect path — access runs, coherence
// upgrades, serial handoffs (faults, allocator calls), daemons (AutoNUMA
// and THP via the tuned config's sampler), tracing and profiling — at
// GOMAXPROCS 4, so `go test -race` proves the quantum handoff orders
// every access to machine state.
func TestRunParallelRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, cfg := range []RunConfig{DefaultConfig(8), TunedConfig(8)} {
		m := NewB()
		m.Configure(cfg)
		m.Observe(ObserveOptions{Trace: true, Profile: true})
		var shared uint64
		m.Run(1, func(t *Thread) {
			shared = t.Malloc(1 << 20)
			t.WriteRun(shared, 64, (1<<20)/64)
		})
		m.Run(8, hostEquivBody(shared))
	}
}
