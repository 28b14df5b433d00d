// Package alloc provides behavioural models of the seven dynamic memory
// allocators the paper evaluates: ptmalloc, jemalloc, tcmalloc, Hoard,
// tbbmalloc, supermalloc and mcmalloc.
//
// Each model implements the structural properties that drive the paper's
// results — thread caches, arena assignment and locking, central heaps,
// slab retention, eager commitment, and (un)friendliness to Transparent
// Hugepages — on top of the simulated virtual memory. A Malloc returns both
// a simulated address and the cycle cost of the operation, including any
// expected lock wait given the thread count sharing the lock; the machine
// layer charges the cycles to the calling thread.
//
// The models are deliberately analytic about contention (expected waits as
// a function of sharers) so that simulations are deterministic, while the
// placement consequences (which node a reused object's page lives on) are
// fully mechanistic through the vmm.
package alloc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/topology"
	"repro/internal/vmm"
)

// Env is the slice of the machine an allocator may use: reserving address
// space, returning pages to the OS, and eagerly committing pages.
type Env interface {
	// Reserve claims virtual address space; pages fault in on first touch.
	Reserve(bytes uint64, owner topology.NodeID) vmm.Range
	// UnmapRange returns whole pages to the OS (madvise(DONTNEED)).
	UnmapRange(base, bytes uint64)
	// Touch commits the pages covering [base, base+bytes) as if written by
	// a thread on the given node (used by eagerly-committing allocators).
	Touch(base, bytes uint64, owner topology.NodeID)
	// Nodes returns the NUMA node count.
	Nodes() int
}

// ThreadInfo identifies the calling simulated thread.
type ThreadInfo interface {
	ID() int
	Node() topology.NodeID
}

// Stats captures an allocator's activity for the microbenchmark and tests.
type Stats struct {
	Mallocs        uint64
	Frees          uint64
	LiveBytes      uint64 // requested bytes currently live
	PeakLiveBytes  uint64
	SlowPaths      uint64 // central/arena refills
	LockWaitCycles float64
	Purges         uint64 // pages returned to the OS
}

// Allocator is a dynamic memory allocator model.
type Allocator interface {
	// Name returns the allocator's name as used in the paper's figures.
	Name() string
	// Attach binds the allocator to a machine for a run with the given
	// number of worker threads. It must be called before Malloc.
	Attach(env Env, threads int)
	// Malloc allocates size bytes for thread t, returning the simulated
	// address and the operation's cycle cost.
	Malloc(t ThreadInfo, size uint64) (addr uint64, cycles float64)
	// Free releases an allocation made by Malloc (sized free), returning
	// the operation's cycle cost.
	Free(t ThreadInfo, addr, size uint64) (cycles float64)
	// THPFriendly reports whether the allocator coexists well with
	// Transparent Hugepages (Figure 5c's dividing line).
	THPFriendly() bool
	// Stats returns cumulative counters.
	Stats() Stats
}

// Names lists the allocators in the paper's order. The first entry,
// ptmalloc, is the system default.
func Names() []string {
	return []string{"ptmalloc", "jemalloc", "tcmalloc", "Hoard", "tbbmalloc", "mcmalloc", "supermalloc"}
}

// WorkloadNames lists the allocators used in the workload experiments
// (Figures 5c, 6, 7): mcmalloc and supermalloc are dropped after the
// microbenchmark for poor overhead and scalability, as in the paper.
func WorkloadNames() []string {
	return []string{"ptmalloc", "jemalloc", "tcmalloc", "Hoard", "tbbmalloc"}
}

// New constructs an allocator model by name. It panics on unknown names so
// that experiment tables fail loudly.
func New(name string) Allocator {
	switch name {
	case "ptmalloc":
		return newPtmalloc()
	case "jemalloc":
		return newJemalloc()
	case "tcmalloc":
		return newTcmalloc()
	case "Hoard", "hoard":
		return newHoard()
	case "tbbmalloc":
		return newTbbmalloc()
	case "supermalloc":
		return newSupermalloc()
	case "mcmalloc":
		return newMcmalloc()
	default:
		panic(fmt.Sprintf("alloc: unknown allocator %q", name))
	}
}

// Size classes shared by the models: fine-grained at small sizes, then
// geometric up to the large-object threshold.
var classSizes = buildClasses()

// LargeThreshold is the size above which allocations bypass thread caches
// and are served directly from page-granular reservations.
const LargeThreshold = 32 << 10

func buildClasses() []uint64 {
	var cs []uint64
	for s := uint64(16); s <= 256; s += 16 {
		cs = append(cs, s)
	}
	for s := uint64(320); s <= LargeThreshold; s = s * 5 / 4 {
		cs = append(cs, (s+63)&^uint64(63))
	}
	if cs[len(cs)-1] != LargeThreshold {
		cs = append(cs, LargeThreshold)
	}
	return cs
}

// classFor returns the smallest class index whose size fits size.
// Sizes above LargeThreshold have no class; callers must check first.
func classFor(size uint64) int {
	return sort.Search(len(classSizes), func(i int) bool { return classSizes[i] >= size })
}

// ClassSize returns the rounded allocation size for a requested size,
// which is what the allocator actually carves (internal fragmentation).
func ClassSize(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	if size > LargeThreshold {
		// Large allocations round to whole pages.
		return (size + vmm.PageSize - 1) &^ uint64(vmm.PageSize-1)
	}
	return classSizes[classFor(size)]
}

// contendedWait returns the expected wait to acquire a lock shared by
// `sharers` threads issuing allocation bursts. The superlinear exponent
// models convoy formation: beyond a couple of competitors, waiters queue
// behind waiters, so observed waits grow faster than linearly (this is what
// makes ptmalloc and tcmalloc fall off in Figure 2a). The wait is capped to
// keep pathological configurations finite.
func contendedWait(sharers int, holdCycles float64) float64 {
	if sharers <= 1 {
		return 0
	}
	x := float64(sharers - 1)
	w := holdCycles * 0.4 * math.Pow(x, 1.4)
	if maxW := holdCycles * 30; w > maxW {
		w = maxW
	}
	return w
}
