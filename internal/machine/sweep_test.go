package machine

import (
	"reflect"
	"testing"

	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vmm"
)

// Cross-cutting sweeps and edge cases for the machine simulator.

func TestThreadScalingReducesWall(t *testing.T) {
	// The same total work split over more threads must shrink the
	// makespan (up to full subscription).
	wall := func(threads int) float64 {
		m := NewC()
		cfg := testConfig(threads)
		m.Configure(cfg)
		var base uint64
		m.Run(1, func(th *Thread) {
			base = t2Alloc(th, 16<<20)
		})
		return m.Run(threads, func(th *Thread) {
			n := uint64(16 << 20)
			lo := n * uint64(th.ID()) / uint64(threads)
			hi := n * uint64(th.ID()+1) / uint64(threads)
			for off := lo &^ 63; off < hi; off += 64 {
				th.Read(base+off, 8)
			}
		}).WallCycles
	}
	w1, w8, w64 := wall(1), wall(8), wall(64)
	if !(w64 < w8 && w8 < w1) {
		t.Errorf("scaling broken: 1T=%v 8T=%v 64T=%v", w1, w8, w64)
	}
	// Sublinear (contention and remote shares grow with threads) but
	// still substantial.
	if w1/w8 < 2.2 {
		t.Errorf("8 threads should cut the 1-thread wall substantially: %v vs %v", w1, w8)
	}
}

func t2Alloc(th *Thread, bytes uint64) uint64 {
	base := th.Malloc(bytes)
	for off := uint64(0); off < bytes; off += 4096 {
		th.Write(base+off, 8)
	}
	return base
}

func TestRemoteLatencyVisible(t *testing.T) {
	// Machine C's 2.1x remote latency: a thread scanning memory on its
	// own node must beat one scanning another node's memory.
	scan := func(owner int) float64 {
		m := NewC()
		cfg := testConfig(2)
		m.Configure(cfg)
		var base uint64
		m.Run(2, func(th *Thread) {
			if th.ID() == owner {
				base = t2Alloc(th, 8<<20)
			}
		})
		res := m.Run(2, func(th *Thread) {
			if th.ID() != 0 {
				return
			}
			for pass := 0; pass < 2; pass++ {
				for off := uint64(0); off < 8<<20; off += 64 {
					th.Read(base+off, 8)
				}
			}
		})
		return res.WallCycles
	}
	local := scan(0)  // thread 0 reads its own allocation
	remote := scan(1) // thread 0 reads thread 1's allocation
	if remote < local*1.3 {
		t.Errorf("remote scan (%v) should clearly exceed local (%v) on Machine C", remote, local)
	}
}

func TestMachineAHopGradient(t *testing.T) {
	// On the twisted ladder, reading from a 3-hop node costs more than
	// from a 1-hop node.
	topo := SpecA().Topo
	oneHop, threeHop := -1, -1
	for n := 1; n < 8; n++ {
		switch topo.Hops(0, topology.NodeID(n)) {
		case 1:
			if oneHop < 0 {
				oneHop = n
			}
		case 3:
			if threeHop < 0 {
				threeHop = n
			}
		}
	}
	if oneHop < 0 || threeHop < 0 {
		t.Fatal("expected both 1-hop and 3-hop nodes")
	}
	scanFrom := func(node int) float64 {
		m := NewA()
		cfg := testConfig(16)
		cfg.Policy = vmm.Preferred
		cfg.PreferredNode = topology.NodeID(node)
		m.Configure(cfg)
		var base uint64
		m.Run(1, func(th *Thread) { base = t2Alloc(th, 4<<20) })
		res := m.Run(1, func(th *Thread) { // runs on node 0
			for off := uint64(0); off < 4<<20; off += 64 {
				th.Read(base+off, 8)
			}
		})
		return res.WallCycles
	}
	near, far := scanFrom(oneHop), scanFrom(threeHop)
	if far <= near {
		t.Errorf("3-hop scan (%v) should exceed 1-hop scan (%v)", far, near)
	}
}

func TestZeroSizeAccessIsFree(t *testing.T) {
	m := NewB()
	m.Configure(testConfig(1))
	res := m.Run(1, func(th *Thread) {
		base := th.Malloc(4096)
		before := th.Cycles()
		th.Read(base, 0)
		th.Write(base, 0)
		if th.Cycles() != before {
			t.Error("zero-size access charged cycles")
		}
	})
	_ = res
}

func TestCountersResetBetweenPhases(t *testing.T) {
	m := NewB()
	m.Configure(testConfig(2))
	m.Run(2, scanBody(1<<20, 1))
	if m.Counters().CacheAccesses == 0 {
		t.Fatal("phase 1 recorded nothing")
	}
	m.ResetCounters()
	c := m.Counters()
	if c.CacheAccesses != 0 || c.MinorFaults != 0 || c.ThreadMigrations != 0 {
		t.Errorf("counters survived reset: %+v", c)
	}
}

// ---------------------------------------------------------------------------
// Scalar-vs-batched equivalence harness.
//
// refAccess is a line-for-line copy of the scalar access path as it stood
// before the batched engine (per-line fault, TLB set scan, division-based
// line tag, no caching between lines). The harness runs the same workload
// through refAccess loops and through the batched Run/Strided APIs across
// the full 15-config sweep and demands bit-identical results, counters,
// cycle profiles and trace streams.

// refAccess charges one scalar access the pre-batching way.
func refAccess(t *Thread, addr, size uint64, write bool) {
	if size == 0 {
		return
	}
	m := t.m
	line := uint64(m.Spec.LineSize)
	last := (addr + size - 1) &^ (line - 1)
	if t.group == nil {
		m.current = t
	}
	for a := addr &^ (line - 1); a <= last; a += line {
		refAccessLine(t, a, write)
	}
	if t.group == nil {
		m.current = nil
	}
	t.maybeYield()
}

func refAccessLine(t *Thread, a uint64, write bool) {
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
	lineTag := a / uint64(m.Spec.LineSize)
	if t.l1.Access(lineTag) {
		if write {
			t.noteWriter(lineTag)
		}
		t.cycles += cost + p.L1HitCycles
		if m.prof != nil {
			m.prof.access(t.id, node, faultC, walkC, 0, BucketL1Hit, p.L1HitCycles)
		}
		return
	}
	cohC := m.coherencePenalty(t, lineTag, write)
	cost += cohC
	t.counters.CacheAccesses++
	if m.llc[node].Access(lineTag) {
		t.cycles += cost + p.LLCHitCycles
		if m.prof != nil {
			m.prof.access(t.id, node, faultC, walkC, cohC, BucketLLCHit, p.LLCHitCycles)
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
	if m.prof != nil {
		m.prof.access(t.id, node, faultC, walkC, cohC,
			dramBucket(m.Spec.Topo.Hops(node, home)), dram)
		m.prof.dram(node, home)
	}
}

// accessOps abstracts how a workload body issues its accesses so the same
// body can run through the reference scalar path and the batched engine.
type accessOps struct {
	read         func(t *Thread, addr, size uint64)
	write        func(t *Thread, addr, size uint64)
	readRun      func(t *Thread, addr, elem uint64, count int)
	writeRun     func(t *Thread, addr, elem uint64, count int)
	readStrided  func(t *Thread, addr, elem, stride uint64, count int)
	writeStrided func(t *Thread, addr, elem, stride uint64, count int)
}

func scalarOps() accessOps {
	loop := func(write bool) func(t *Thread, addr, elem, stride uint64, count int) {
		return func(t *Thread, addr, elem, stride uint64, count int) {
			for i := 0; i < count; i++ {
				refAccess(t, addr+uint64(i)*stride, elem, write)
			}
		}
	}
	return accessOps{
		read:  func(t *Thread, addr, size uint64) { refAccess(t, addr, size, false) },
		write: func(t *Thread, addr, size uint64) { refAccess(t, addr, size, true) },
		readRun: func(t *Thread, addr, elem uint64, count int) {
			loop(false)(t, addr, elem, elem, count)
		},
		writeRun: func(t *Thread, addr, elem uint64, count int) {
			loop(true)(t, addr, elem, elem, count)
		},
		readStrided:  loop(false),
		writeStrided: loop(true),
	}
}

func batchedOps() accessOps {
	return accessOps{
		read:         func(t *Thread, addr, size uint64) { t.Read(addr, size) },
		write:        func(t *Thread, addr, size uint64) { t.Write(addr, size) },
		readRun:      func(t *Thread, addr, elem uint64, count int) { t.ReadRun(addr, elem, count) },
		writeRun:     func(t *Thread, addr, elem uint64, count int) { t.WriteRun(addr, elem, count) },
		readStrided:  (*Thread).ReadStrided,
		writeStrided: (*Thread).WriteStrided,
	}
}

// equivBody exercises every access shape: dense store and load runs, page-
// and sub-page strides, random scalar probes (pointer-chasing stand-in),
// cross-thread sharing for coherence, allocation and pure-CPU work.
func equivBody(ops accessOps, shared *uint64) func(*Thread) {
	const bufBytes = 1 << 20
	return func(t *Thread) {
		if t.ID() == 0 {
			*shared = t.Malloc(bufBytes)
			ops.writeRun(t, *shared, 64, bufBytes/64)
		}
		base := t.Malloc(bufBytes)
		ops.writeRun(t, base, 8, bufBytes/8)
		ops.readRun(t, base, 64, bufBytes/64)
		ops.readStrided(t, base, 8, 4096, bufBytes/4096)
		ops.writeStrided(t, base, 16, 192, 1024)
		rng := t.RNG()
		for i := 0; i < 512; i++ {
			off := rng.Uint64n(bufBytes/8) * 8
			ops.read(t, base+off, 8)
		}
		t.Charge(3000)
		if *shared != 0 {
			ops.writeRun(t, *shared, 8, 2048)
		}
		t.Free(base, bufBytes)
	}
}

// TestBatchedPathEquivalence is the old-vs-new harness: across the full
// configuration sweep, the batched engine must reproduce the reference
// scalar path bit for bit — results, counters, cycle attribution, and the
// complete trace event stream.
func TestBatchedPathEquivalence(t *testing.T) {
	for _, tc := range profileConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			run := func(ops accessOps) (Result, *Profile, []trace.Event) {
				m := tc.machine()
				m.Configure(tc.cfg)
				rec := trace.NewRecorder()
				m.Observe(ObserveOptions{Sink: rec, Profile: true})
				var shared uint64
				res := m.Run(tc.threads, equivBody(ops, &shared))
				return res, m.Profile(), rec.Events
			}
			sRes, sProf, sEvents := run(scalarOps())
			bRes, bProf, bEvents := run(batchedOps())
			if !reflect.DeepEqual(sRes, bRes) {
				t.Errorf("results diverge:\nscalar:  %+v\nbatched: %+v", sRes, bRes)
			}
			if !reflect.DeepEqual(sProf, bProf) {
				t.Error("cycle profiles diverge")
			}
			if len(sEvents) != len(bEvents) {
				t.Fatalf("trace streams diverge: %d vs %d events", len(sEvents), len(bEvents))
			}
			for i := range sEvents {
				if sEvents[i] != bEvents[i] {
					t.Fatalf("trace event %d diverges:\nscalar:  %+v\nbatched: %+v",
						i, sEvents[i], bEvents[i])
				}
			}
		})
	}
}

func TestCoherenceTransferCharged(t *testing.T) {
	// A line written by a thread on one node costs extra when first read
	// from another node (dirty cache-to-cache transfer).
	m := NewB()
	m.Configure(testConfig(2))
	var base uint64
	m.Run(2, func(th *Thread) {
		if th.ID() == 0 {
			base = th.Malloc(4096)
			th.Write(base, 64)
		}
	})
	var withTransfer, without float64
	m.Run(2, func(th *Thread) {
		if th.ID() != 1 {
			return
		}
		c0 := th.Cycles()
		th.Read(base, 8) // dirty on node 0: transfer
		withTransfer = th.Cycles() - c0
		c1 := th.Cycles()
		th.Read(base+2048, 8) // clean line, same page
		without = th.Cycles() - c1
	})
	if withTransfer <= without {
		t.Errorf("dirty-line read (%v) should cost more than clean (%v)", withTransfer, without)
	}
}
