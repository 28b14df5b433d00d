// Package cache provides deterministic set-associative LRU cache models
// used by the machine simulator for per-core L1 data caches, per-node
// shared last-level caches, and per-core TLBs (with separate 4KiB and 2MiB
// entry arrays, matching Table II of the paper).
//
// The models are purely functional state machines: an Access either hits or
// misses and updates recency; the machine layer translates outcomes into
// cycles. All replacement decisions are deterministic (true LRU), so a
// simulation with a fixed seed is bit-for-bit reproducible.
//
// A set is stored as its resident tags alone, ordered from most to least
// recently used, so recency needs no per-entry timestamp: the position of
// a tag is its age rank.
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// Cache is a set-associative cache with true LRU replacement. Capacity is
// expressed in entries (lines for a data cache, translations for a TLB);
// the caller decides what a tag means.
//
// Each set is ways consecutive 4-byte slots ordered from most to least
// recently used, and empty slots always come after resident ones. The set
// a tag maps to is its low bits, so a slot stores only the rest: the bits
// above the set index, plus one. The zero value marks an empty way, and
// tag 0 (the first line or page of the address space) stays valid. A tag
// is accepted while its bits above the set index are below 2^32-1;
// Access panics on any other tag, and Contains and Invalidate report it
// absent. A lookup walks the set from the front, so a hit on a recently
// used tag reads only the first host cache line of its set (a 16-way set
// is exactly one 64-byte line), and the walk stops at the first empty
// slot.
type Cache struct {
	ways     int
	setBits  uint8
	setMask  uint64
	slots    []uint32
	accesses uint64
	misses   uint64
}

// New builds a cache with at least the requested number of entries and the
// given associativity. The set count is rounded up to a power of two, so
// the effective capacity, which Entries reports, can be nearly twice
// entries: a 40 MiB LLC of 64-byte lines, 16-way, holds 64 MiB. ways must
// be >= 1; an entries value below ways is raised to ways (one set).
func New(entries, ways int) *Cache {
	if ways < 1 {
		ways = 1
	}
	if entries < ways {
		entries = ways
	}
	sets := 1
	for sets*ways < entries {
		sets <<= 1
	}
	return &Cache{
		ways:    ways,
		setBits: uint8(bits.TrailingZeros(uint(sets))),
		setMask: uint64(sets - 1),
		slots:   make([]uint32, sets*ways),
	}
}

// Entries returns the effective capacity in entries.
func (c *Cache) Entries() int { return len(c.slots) }

// set returns the slots of the set tag maps to.
func (c *Cache) set(tag uint64) []uint32 {
	i := int(tag&c.setMask) * c.ways
	return c.slots[i : i+c.ways : i+c.ways]
}

// key returns the slot value that stands for tag in its set, and false if
// tag is out of range: its bits above the set index would not fit a slot
// beside the empty marker.
func (c *Cache) key(tag uint64) (uint32, bool) {
	hi := tag >> (c.setBits & 63) // the mask spares the shift a range check
	return uint32(hi) + 1, hi < math.MaxUint32
}

// Access looks up tag, inserting it (with LRU eviction) on a miss, and
// reports whether the lookup hit. Either way tag ends up in the set's
// first slot. It panics, before touching the set or the counters, if tag
// is out of range.
//
// The walk carries one tag down the set: each slot takes the tag in hand
// and hands on the one it held. It stops where it hands on tag itself (a
// hit, moved to the front), an empty slot (a miss filling the first free
// way), or past the last slot (a miss evicting the least recently used
// tag). These are the decisions of a timestamp-based true LRU.
func (c *Cache) Access(tag uint64) bool {
	key, ok := c.key(tag)
	if !ok {
		panic(c.outOfRange(tag))
	}
	c.accesses++
	s := c.set(tag)
	in := key
	for i, out := range s {
		s[i] = in
		if out == key {
			return true
		}
		if out == 0 {
			break
		}
		in = out
	}
	c.misses++
	return false
}

// outOfRange describes a tag Access cannot store. It is kept out of line
// so Access keeps a small frame.
//
//go:noinline
func (c *Cache) outOfRange(tag uint64) string {
	return fmt.Sprintf("cache: tag %#x out of range for %d sets", tag, c.setMask+1)
}

// Repeat counts a re-access of the tag the caller's previous Access on
// this cache looked up: that tag is already most recently used, so the
// lookup hits and changes no recency. The caller must guarantee that no
// operation on this cache came in between (the machine layer's batched
// access path drops its cached handles at every yield point).
func (c *Cache) Repeat() { c.accesses++ }

// Contains reports whether tag is resident without updating recency or
// counters.
func (c *Cache) Contains(tag uint64) bool {
	_, i := c.find(tag)
	return i >= 0
}

// Invalidate removes tag if present, reporting whether it was resident.
// The less recently used tags behind it move up one slot, so the freed
// way joins the empty ones at the end of the set.
func (c *Cache) Invalidate(tag uint64) bool {
	s, i := c.find(tag)
	if i < 0 {
		return false
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = 0
	return true
}

// find returns the set tag maps to and tag's slot in it, or -1 if tag is
// not resident (an out-of-range tag never is).
func (c *Cache) find(tag uint64) ([]uint32, int) {
	s := c.set(tag)
	key, ok := c.key(tag)
	if !ok {
		return s, -1
	}
	for i, v := range s {
		if v == key {
			return s, i
		}
		if v == 0 {
			break
		}
	}
	return s, -1
}

// Flush invalidates every entry (used when a thread migrates and loses its
// core-private state).
func (c *Cache) Flush() { clear(c.slots) }

// Stats returns the cumulative access and miss counts.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.accesses, c.misses = 0, 0 }
