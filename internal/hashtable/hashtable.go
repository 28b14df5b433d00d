// Package hashtable provides the shared, concurrent chaining hash table
// used by the aggregation and hash-join workloads (W1-W3). It mirrors the
// paper's shared global table design: a bucket array in simulated memory
// with individually heap-allocated chain nodes, so every probe charges the
// accessing thread for the bucket and node cache lines it walks, and every
// insert exercises the configured memory allocator.
//
// The table's Go-side bookkeeping is plain data because the machine
// scheduler runs exactly one simulated thread at a time; concurrency costs
// (per-bucket CAS) are charged explicitly.
package hashtable

import (
	"repro/internal/machine"
)

const (
	bucketBytes = 8  // one head pointer per bucket
	nodeBytes   = 24 // key + value + next pointer

	hashCycles = 8 // one multiplicative hash
	casCycles  = 18
	cmpCycles  = 2
)

type node struct {
	key  uint64
	val  uint32
	next int32
	addr uint64
}

// Table is a chaining hash table from uint64 keys to uint32 values (the
// values are typically indexes into caller-managed arrays).
type Table struct {
	mask      uint64
	arrayAddr uint64
	heads     []int32
	nodes     []node
}

// New allocates a table with the given bucket count (rounded up to a power
// of two) through t's allocator, charging the array's first touches to t.
func New(t *machine.Thread, buckets int) *Table {
	n := 1
	for n < buckets {
		n <<= 1
	}
	h := &Table{
		mask:  uint64(n - 1),
		heads: make([]int32, n),
	}
	for i := range h.heads {
		h.heads[i] = -1
	}
	h.arrayAddr = t.Malloc(uint64(n) * bucketBytes)
	// Initialize the bucket array (empty-head sentinel writes). Like the
	// real implementations' constructor memset, this first-touches the
	// whole array on the creating thread's node — under First Touch the
	// shared table lands on one node, the placement pathology at the
	// heart of the paper's Figure 5/6 results.
	t.Write(h.arrayAddr, uint64(n)*bucketBytes)
	return h
}

// hash mixes the key; the cost is charged by the callers.
func hash(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return key
}

func (h *Table) bucketOf(key uint64) uint64 { return hash(key) & h.mask }

// bucketAddr returns the simulated address of bucket b's head pointer.
func (h *Table) bucketAddr(b uint64) uint64 { return h.arrayAddr + b*bucketBytes }

// Get probes for key, charging the thread for the bucket and chain
// accesses. It returns the stored value and whether the key was present.
func (h *Table) Get(t *machine.Thread, key uint64) (uint32, bool) {
	t.Charge(hashCycles)
	b := h.bucketOf(key)
	t.Read(h.bucketAddr(b), bucketBytes)
	for i := h.heads[b]; i >= 0; i = h.nodes[i].next {
		n := &h.nodes[i]
		t.Read(n.addr, nodeBytes)
		t.Charge(cmpCycles)
		if n.key == key {
			return n.val, true
		}
	}
	return 0, false
}

// Put inserts key -> val without checking for duplicates (the hash-join
// build side relies on this: build keys are unique).
func (h *Table) Put(t *machine.Thread, key uint64, val uint32) {
	t.Charge(hashCycles)
	b := h.bucketOf(key)
	h.insert(t, b, key, val)
}

// GetOrPut returns the existing value for key, or inserts the value
// returned by mk and reports inserted=true. This is the aggregation
// upsert: probe, then a CAS-guarded chain push on miss.
//
// Every charged operation (Read, Malloc, mk's allocations) is a potential
// yield point where other simulated threads run, so the implementation is
// a real CAS-retry loop: after any yield it re-scans the chain prefix that
// appeared since, exactly as a lock-free table would after a failed CAS.
// If a racing thread inserted the key first, mk's result is abandoned (the
// caller must tolerate unreferenced results, as real upsert code tolerates
// losing the race after speculative allocation).
func (h *Table) GetOrPut(t *machine.Thread, key uint64, mk func() uint32) (val uint32, inserted bool) {
	t.Charge(hashCycles)
	b := h.bucketOf(key)
	t.Read(h.bucketAddr(b), bucketBytes)
	stop := int32(-1) // everything at/after this node has been scanned
	var v uint32
	made := false
	var addr uint64
	haveNode := false
	for {
		start := h.heads[b]
		for i := start; i >= 0 && i != stop; i = h.nodes[i].next {
			n := &h.nodes[i]
			t.Read(n.addr, nodeBytes)
			t.Charge(cmpCycles)
			if n.key == key {
				if haveNode {
					t.Free(addr, nodeBytes)
				}
				return n.val, false
			}
		}
		if h.heads[b] != start {
			// A reader yield let a racer extend the chain: rescan it.
			stop = start
			t.Charge(casCycles)
			continue
		}
		stop = start
		if !made {
			v = mk() // may yield inside its allocations
			made = true
		}
		if !haveNode {
			addr = t.Malloc(nodeBytes) // may yield
			haveNode = true
		}
		if h.heads[b] != stop {
			t.Charge(casCycles) // CAS failed; rescan the new prefix
			continue
		}
		// Commit the Go-side state before charging anything that could
		// yield: this is the linearization point.
		h.nodes = append(h.nodes, node{key: key, val: v, next: h.heads[b], addr: addr})
		h.heads[b] = int32(len(h.nodes) - 1)
		t.Write(addr, nodeBytes)
		t.Read(h.bucketAddr(b), bucketBytes)
		t.Write(h.bucketAddr(b), bucketBytes)
		t.Charge(casCycles)
		return v, true
	}
}

// insert pushes a fresh node at the head of bucket b. The chain link and
// head update commit before any further charges, so a yield inside Malloc
// or the trailing writes cannot lose a concurrent insert.
func (h *Table) insert(t *machine.Thread, b uint64, key uint64, val uint32) {
	addr := t.Malloc(nodeBytes)
	h.nodes = append(h.nodes, node{key: key, val: val, next: h.heads[b], addr: addr})
	h.heads[b] = int32(len(h.nodes) - 1)
	t.Write(addr, nodeBytes)
	// Concurrent head swap: read-modify-write with a CAS.
	t.Read(h.bucketAddr(b), bucketBytes)
	t.Write(h.bucketAddr(b), bucketBytes)
	t.Charge(casCycles)
}

// Len returns the number of stored entries.
func (h *Table) Len() int { return len(h.nodes) }

// ForEach calls fn for every (key, value) pair, charging sequential reads
// to t. Iteration order is bucket order, deterministic.
func (h *Table) ForEach(t *machine.Thread, fn func(key uint64, val uint32)) {
	for b := range h.heads {
		t.Read(h.bucketAddr(uint64(b)), bucketBytes)
		for i := h.heads[b]; i >= 0; i = h.nodes[i].next {
			n := &h.nodes[i]
			t.Read(n.addr, nodeBytes)
			fn(n.key, n.val)
		}
	}
}

// Release frees the node heap and the bucket array back to the allocator.
func (h *Table) Release(t *machine.Thread) {
	for i := range h.nodes {
		t.Free(h.nodes[i].addr, nodeBytes)
	}
	t.Free(h.arrayAddr, uint64(len(h.heads))*bucketBytes)
	h.nodes = nil
}
