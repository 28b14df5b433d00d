// Package query implements the paper's query-processing workloads on the
// machine simulator: hashtable-based holistic aggregation (W1, MEDIAN),
// distributive aggregation (W2, COUNT), the non-partitioning hash join of
// Blanas et al. (W3), and the index nested-loop join (W4, in indexjoin.go)
// over the pluggable in-memory indexes.
//
// Each workload has a setup phase (loading the dataset into simulated
// memory, single-threaded, like the paper's generators) and a timed phase
// run on the configured thread count. Results carry both the simulator
// measurement and a checksum that tests validate against a plain Go
// reference implementation.
package query

import "repro/internal/machine"

// vec is a growable array of uint64 in simulated memory with doubling
// growth — the value buffer behind each aggregation group and each
// thread's join output. Growth reallocates through the machine's
// allocator and copies through the cache hierarchy, which is what makes
// W1 and W3 allocation-heavy.
type vec struct {
	addr uint64
	n    int
	cap  int
}

const vecElem = 8

// push appends one element, growing the simulated buffer when full.
func (b *vec) push(t *machine.Thread) {
	if b.n == b.cap {
		newCap := b.cap * 2
		if newCap < 8 {
			newCap = 8
		}
		newAddr := t.Malloc(uint64(newCap) * vecElem)
		if b.n > 0 {
			t.Read(b.addr, uint64(b.n)*vecElem)
			t.Write(newAddr, uint64(b.n)*vecElem)
			t.Free(b.addr, uint64(b.cap)*vecElem)
		}
		b.addr = newAddr
		b.cap = newCap
	}
	t.Write(b.addr+uint64(b.n)*vecElem, vecElem)
	b.n++
}
