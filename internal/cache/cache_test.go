package cache

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestHitAfterInsert(t *testing.T) {
	c := New(64, 4)
	if c.Access(42) {
		t.Fatal("first access must miss")
	}
	if !c.Access(42) {
		t.Fatal("second access must hit")
	}
}

func TestEntriesRounding(t *testing.T) {
	c := New(100, 4)
	if c.Entries() < 100 {
		t.Fatalf("entries = %d, want >= 100", c.Entries())
	}
	if c.Entries()%4 != 0 {
		t.Fatalf("entries = %d, not a multiple of ways", c.Entries())
	}
}

func TestLRUEviction(t *testing.T) {
	// Single set of 2 ways: tags that collide in set 0.
	c := New(2, 2)
	sets := c.Entries() / 2
	a, b, d := uint64(0), uint64(sets), uint64(2*sets) // same set
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now more recent than b
	c.Access(d) // evicts b (LRU)
	if !c.Contains(a) {
		t.Error("a should survive (recently used)")
	}
	if c.Contains(b) {
		t.Error("b should be evicted (least recently used)")
	}
	if !c.Contains(d) {
		t.Error("d should be resident")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := New(1024, 8)
	n := uint64(c.Entries())
	for i := uint64(0); i < n; i++ {
		c.Access(i)
	}
	c.ResetStats()
	for round := 0; round < 4; round++ {
		for i := uint64(0); i < n; i++ {
			if !c.Access(i) {
				t.Fatalf("miss on resident working set at tag %d", i)
			}
		}
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	c := New(64, 4)
	n := uint64(c.Entries() * 8) // 8x capacity, sequential scan
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < n; i++ {
			c.Access(i)
		}
	}
	acc, miss := c.Stats()
	if float64(miss)/float64(acc) < 0.99 {
		t.Errorf("sequential over-capacity scan should thrash: %d/%d misses", miss, acc)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(64, 4)
	c.Access(7)
	if !c.Invalidate(7) {
		t.Fatal("invalidate should report residency")
	}
	if c.Contains(7) {
		t.Fatal("tag still resident after invalidate")
	}
	if c.Invalidate(7) {
		t.Fatal("second invalidate should report absence")
	}
}

func TestFlush(t *testing.T) {
	c := New(64, 4)
	for i := uint64(0); i < 32; i++ {
		c.Access(i)
	}
	c.Flush()
	for i := uint64(0); i < 32; i++ {
		if c.Contains(i) {
			t.Fatalf("tag %d survived flush", i)
		}
	}
}

func TestStatsCount(t *testing.T) {
	c := New(16, 2)
	for i := uint64(0); i < 10; i++ {
		c.Access(i % 5)
	}
	acc, miss := c.Stats()
	if acc != 10 {
		t.Errorf("accesses = %d, want 10", acc)
	}
	if miss != 5 {
		t.Errorf("misses = %d, want 5 (five distinct tags fit)", miss)
	}
}

func TestContainsMatchesAccessProperty(t *testing.T) {
	c := New(256, 4)
	f := func(tags []uint64) bool {
		for _, tag := range tags {
			tag = c.accepted(tag)
			c.Access(tag)
			if !c.Contains(tag) {
				return false // just-inserted tag must be resident
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDegenerateConfigs(t *testing.T) {
	c := New(0, 0) // clamped to one entry, one way
	if c.Entries() < 1 {
		t.Fatal("cache must hold at least one entry")
	}
	c.Access(1)
	if !c.Access(1) {
		t.Fatal("single-entry cache should hit on repeat")
	}
	if c.Access(2); c.Access(1) {
		t.Fatal("single-entry cache must evict on conflict")
	}
}

// TestAccessLeavesTagMRU: a cache must evolve exactly like the reference
// model over the same tag sequence, and every Access must leave its tag in
// the first slot of its set, where Repeat relies on finding it.
func TestAccessLeavesTagMRU(t *testing.T) {
	a, ref := New(64, 4), newRefCache(64, 4)
	f := func(tags []uint64) bool {
		for _, tag := range tags {
			tag = a.accepted(tag)
			if a.Access(tag) != ref.Access(tag) {
				return false
			}
			if order, _ := a.order(tag); order[0] != tag {
				return false
			}
		}
		acc, miss := a.Stats()
		refAcc, refMiss := ref.Stats()
		return acc == refAcc && miss == refMiss
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRepeatMatchesAccessHit: Repeat right after an Access of the same tag
// must leave the cache in the same state as a second hitting Access.
func TestRepeatMatchesAccessHit(t *testing.T) {
	a, b := New(16, 2), New(16, 2)
	a.Access(9)
	b.Access(9)
	a.Access(9)
	b.Access(9)
	a.Access(9) // third touch via full lookup...
	b.Repeat()
	// ...must equal the third touch via Repeat: same stats and same
	// eviction behaviour afterwards.
	accA, missA := a.Stats()
	accB, missB := b.Stats()
	if accA != accB || missA != missB {
		t.Fatalf("stats diverge: %d/%d vs %d/%d", accA, missA, accB, missB)
	}
	sets := a.Entries() / 2
	colliderA := uint64(9 + sets)
	a.Access(colliderA)
	b.Access(colliderA)
	a.Access(colliderA + uint64(sets))
	b.Access(colliderA + uint64(sets))
	if a.Contains(9) != b.Contains(9) {
		t.Error("recency after Repeat diverges from recency after Access hit")
	}
}

func TestRepeatAfterMissInsert(t *testing.T) {
	c := New(16, 2)
	if c.Access(3) {
		t.Fatal("cold cache must miss")
	}
	c.Repeat() // re-touch the freshly inserted entry
	acc, miss := c.Stats()
	if acc != 2 || miss != 1 {
		t.Fatalf("stats = %d/%d, want 2 accesses 1 miss", acc, miss)
	}
	if !c.Contains(3) {
		t.Fatal("tag should be resident after insert+repeat")
	}
}

func TestTLBSmallPages(t *testing.T) {
	tlb := NewTLB(64, 32, 4)
	if tlb.Access(100, false) {
		t.Fatal("cold TLB must miss")
	}
	if !tlb.Access(100, false) {
		t.Fatal("warm TLB must hit")
	}
}

func TestTLBHugeReach(t *testing.T) {
	tlb := NewTLB(64, 32, 4)
	// 512 consecutive 4KiB pages inside one huge page: one huge entry
	// covers them all.
	tlb.Access(512*3, true) // first touch loads the huge entry
	hits := 0
	for vpn := uint64(512 * 3); vpn < 512*4; vpn++ {
		if tlb.Access(vpn, true) {
			hits++
		}
	}
	if hits != 512 {
		t.Fatalf("huge entry should cover all 512 pages, hit %d", hits)
	}
}

func TestTLBNoHugeArray(t *testing.T) {
	tlb := NewTLB(64, 0, 4)
	tlb.Access(7, true)
	if tlb.Access(7, true) {
		t.Fatal("without a 2MiB array, huge lookups always miss")
	}
	// Small side still works.
	tlb.Access(7, false)
	if !tlb.Access(7, false) {
		t.Fatal("small side should be unaffected")
	}
}

func TestTLBFlushAndInvalidate(t *testing.T) {
	tlb := NewTLB(64, 32, 4)
	tlb.Access(5, false)
	tlb.Access(512*2, true)
	tlb.Flush()
	if tlb.Access(5, false) {
		t.Fatal("flush must drop small entries")
	}
	if tlb.Access(512*2, true) {
		t.Fatal("flush must drop huge entries")
	}
	tlb.InvalidatePage(5)
	if tlb.Access(5, false) {
		t.Fatal("invalidated page must miss")
	}
}

func TestTLBStats(t *testing.T) {
	tlb := NewTLB(16, 8, 2)
	tlb.Access(1, false)
	tlb.Access(1, false)
	tlb.Access(1024, true)
	acc, miss := tlb.Stats()
	if acc != 3 || miss != 2 {
		t.Fatalf("stats = %d/%d, want 3 accesses 2 misses", acc, miss)
	}
}

func TestTLBRepeat(t *testing.T) {
	tlb := NewTLB(16, 8, 2)
	if tlb.Access(5, false) {
		t.Fatal("cold lookup must miss")
	}
	if !tlb.Repeat(false) {
		t.Fatal("repeat of a small-page translation must hit")
	}
	acc, miss := tlb.Stats()
	if acc != 2 || miss != 1 {
		t.Fatalf("stats = %d/%d, want 2 accesses 1 miss", acc, miss)
	}
	// Huge translation through the 2MiB array.
	tlb.Access(512*2, true)
	if !tlb.Repeat(true) {
		t.Fatal("repeat of a huge translation must hit when the array exists")
	}
}

func TestTLBRepeatNoHugeArray(t *testing.T) {
	tlb := NewTLB(16, 0, 2)
	if tlb.Access(512*2, true) {
		t.Fatal("huge lookup without a 2MiB array must miss")
	}
	if tlb.Repeat(true) {
		t.Fatal("repeat without a 2MiB array must keep missing, like Access")
	}
	// The always-miss path must not touch any counters, matching Access's
	// early return.
	acc, miss := tlb.Stats()
	if acc != 0 || miss != 0 {
		t.Fatalf("stats = %d/%d, want untouched (0/0)", acc, miss)
	}
}

// refWay and refCache are a timestamp-based true-LRU cache, the reference
// model Cache must match decision for decision. A zero stamp marks the
// way invalid: stamps are assigned from the tick counter after it is
// incremented, so a resident entry always carries a stamp >= 1.
type refWay struct {
	tag   uint64
	stamp uint64
}

type refCache struct {
	ways     int
	setMask  uint64
	entries  []refWay
	tick     uint64
	accesses uint64
	misses   uint64
}

func newRefCache(entries, ways int) *refCache {
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
	return &refCache{
		ways:    ways,
		setMask: uint64(sets - 1),
		entries: make([]refWay, sets*ways),
	}
}

func (c *refCache) Entries() int { return len(c.entries) }

// Access: invalid ways carry stamp 0 and therefore lose every comparison
// against resident stamps (>= 1), so the first invalid way is the victim;
// with all ways resident the minimum stamp (true LRU) is evicted.
func (c *refCache) Access(tag uint64) bool {
	hit, _ := c.AccessIndexed(tag)
	return hit
}

// AccessIndexed performs Access(tag) and also returns the absolute entry
// index now holding tag, for Repeat.
func (c *refCache) AccessIndexed(tag uint64) (hit bool, idx int) {
	c.tick++
	c.accesses++
	set := int(tag&c.setMask) * c.ways
	w := c.entries[set : set+c.ways]
	victim := 0
	victimStamp := ^uint64(0)
	for i := range w {
		e := &w[i]
		if e.stamp != 0 && e.tag == tag {
			e.stamp = c.tick
			return true, set + i
		}
		if e.stamp < victimStamp {
			victim, victimStamp = i, e.stamp
		}
	}
	c.misses++
	w[victim] = refWay{tag: tag, stamp: c.tick}
	return false, set + victim
}

// Repeat re-touches the entry at idx: state-identical to Access(tag)
// hitting that entry.
func (c *refCache) Repeat(idx int) {
	c.tick++
	c.accesses++
	c.entries[idx].stamp = c.tick
}

func (c *refCache) Contains(tag uint64) bool {
	set := int(tag&c.setMask) * c.ways
	for i := set; i < set+c.ways; i++ {
		e := &c.entries[i]
		if e.stamp != 0 && e.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Invalidate(tag uint64) bool {
	set := int(tag&c.setMask) * c.ways
	for i := set; i < set+c.ways; i++ {
		e := &c.entries[i]
		if e.stamp != 0 && e.tag == tag {
			e.stamp = 0
			return true
		}
	}
	return false
}

func (c *refCache) Flush() {
	for i := range c.entries {
		c.entries[i].stamp = 0
	}
}

func (c *refCache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// order returns the resident tags of tag's set from most to least
// recently used.
func (c *refCache) order(tag uint64) []uint64 {
	set := int(tag&c.setMask) * c.ways
	var live []refWay
	for _, e := range c.entries[set : set+c.ways] {
		if e.stamp != 0 {
			live = append(live, e)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].stamp > live[j].stamp })
	tags := make([]uint64, len(live))
	for i, e := range live {
		tags[i] = e.tag
	}
	return tags
}

// order returns the resident tags of tag's set in slot order, and false if
// a resident slot follows an empty one.
func (c *Cache) order(tag uint64) ([]uint64, bool) {
	s := c.set(tag)
	n := 0
	for n < len(s) && s[n] != 0 {
		n++
	}
	for _, v := range s[n:] {
		if v != 0 {
			return nil, false
		}
	}
	tags := make([]uint64, n)
	for i, v := range s[:n] {
		tags[i] = uint64(v-1)<<c.setBits | tag&c.setMask
	}
	return tags, true
}

// maxTag returns the largest tag a Cache with sets sets accepts: a slot
// holds the tag's bits above the set index plus one, in 32 bits.
func maxTag(sets uint64) uint64 {
	return (math.MaxUint32-1)<<bits.TrailingZeros64(sets) | (sets - 1)
}

// accepted maps an arbitrary tag onto the range c accepts.
func (c *Cache) accepted(tag uint64) uint64 { return tag % (maxTag(c.setMask+1) + 1) }

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestOutOfRangeTag: past the largest accepted tag, the first tag's slot
// value would wrap to the empty marker, and the one a set further would
// truncate to tag 0's. In an empty set, a set holding tag 0 and a full
// set, both must panic in Access with the set and counters unchanged, and
// Contains and Invalidate must report them absent.
func TestOutOfRangeTag(t *testing.T) {
	for _, g := range fuzzGeometries {
		c := New(g[0], g[1])
		sets := uint64(c.Entries() / g[1])
		first := maxTag(sets) + 1
		for _, fill := range []int{0, 1, g[1]} {
			c.Flush()
			for k := range fill {
				c.Access(uint64(k) * sets)
			}
			before := slices.Clone(c.set(0))
			acc, miss := c.Stats()
			for _, tag := range []uint64{first, first + sets} {
				if tag&c.setMask != 0 {
					t.Fatalf("%v: tag %#x does not map to set 0", g, tag)
				}
				if c.Contains(tag) {
					t.Errorf("%v, %d resident: Contains(%#x) = true", g, fill, tag)
				}
				if c.Invalidate(tag) {
					t.Errorf("%v, %d resident: Invalidate(%#x) = true", g, fill, tag)
				}
				if !panics(func() { c.Access(tag) }) {
					t.Errorf("%v, %d resident: Access(%#x) did not panic", g, fill, tag)
				}
				if got := c.set(0); !slices.Equal(got, before) {
					t.Errorf("%v, %d resident: tag %#x changed set 0 from %x to %x", g, fill, tag, before, got)
				}
				if a, m := c.Stats(); a != acc || m != miss {
					t.Errorf("%v, %d resident: tag %#x changed stats %d/%d to %d/%d", g, fill, tag, acc, miss, a, m)
				}
			}
		}
	}
}

// fuzzGeometries are the (entries, ways) shapes FuzzCacheMatchesLRU
// drives, from a single direct-mapped entry up to the LLC's 16 ways.
var fuzzGeometries = [...][2]int{{1, 1}, {16, 2}, {64, 4}, {1024, 8}, {4096, 16}}

// fuzzTag decodes one operation's tag. Bit 3 of op picks one of two sets:
// set 0, which holds tag 0, or the set of the geometry's largest accepted
// tag, maxTag(sets). Values of a below 0xf0 name 24 low tags of that set,
// enough to overflow every geometry; 0xf0 and above name the 16 largest
// tags of maxTag's set, maxTag first.
func fuzzTag(op, a byte, sets uint64) uint64 {
	if a >= 0xf0 {
		return maxTag(sets) - uint64(a-0xf0)*sets
	}
	set := uint64(0)
	if op&8 != 0 {
		set = sets - 1
	}
	return set + uint64(a%24)*sets
}

// fuzzSeeds returns one scripted input per geometry plus a fixed random
// one. A script fills both fuzzed sets past 16 ways, re-touches set 0 at
// every recency depth, and mixes in Repeat, Invalidate (resident, absent,
// tag 0, maxTag), Contains and Flush.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for g := range fuzzGeometries {
		s := []byte{byte(g)}
		op := func(o, a byte) { s = append(s, o, a) }
		for a := byte(0); a < 20; a++ {
			op(0, a)
			op(8, a)
		}
		for a := byte(0xf0); a < 0xf8; a++ {
			op(0, a)
		}
		for a := 19; a >= 0; a-- {
			op(0, byte(a))
		}
		op(4, 0)
		op(4, 0xf0)
		op(4, 23)
		for _, a := range []byte{10, 0, 0xf0, 23, 22} {
			op(5, a)
		}
		for _, a := range []byte{0, 1, 0xf0, 0xf1, 10} {
			op(6, a)
		}
		op(0, 5)
		op(8, 6)
		op(0, 0xf0)
		op(0xff, 0)
		op(6, 0)
		op(0, 0)
		op(4, 0xf0)
		seeds = append(seeds, s)
	}
	r := xrand.New(14)
	s := make([]byte, 512)
	for i := range s {
		s[i] = byte(r.Uint64())
	}
	return append(seeds, s)
}

// FuzzCacheMatchesLRU drives a Cache and the reference model through the
// same Access, Repeat-after-Access, Invalidate, Flush and Contains calls,
// and requires identical results, Stats and recency order of both fuzzed
// sets after every step. The first input byte picks a geometry; each
// following byte pair (op, a) is one call on tag fuzzTag(op, a): op 0xff
// is Flush, else op&7 selects 4 Repeat-after-Access, 5 Invalidate,
// 6 Contains and any other value Access.
func FuzzCacheMatchesLRU(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := fuzzGeometries[int(data[0])%len(fuzzGeometries)]
		c, ref := New(g[0], g[1]), newRefCache(g[0], g[1])
		if c.Entries() != ref.Entries() {
			t.Fatalf("entries %d, reference %d", c.Entries(), ref.Entries())
		}
		sets := uint64(c.Entries() / g[1])
		for i := 1; i+1 < len(data); i += 2 {
			op, tag := data[i], fuzzTag(data[i], data[i+1], sets)
			var got, want bool
			switch {
			case op == 0xff:
				c.Flush()
				ref.Flush()
			case op&7 == 4:
				var idx int
				got = c.Access(tag)
				want, idx = ref.AccessIndexed(tag)
				c.Repeat()
				ref.Repeat(idx)
			case op&7 == 5:
				got, want = c.Invalidate(tag), ref.Invalidate(tag)
			case op&7 == 6:
				got, want = c.Contains(tag), ref.Contains(tag)
			default:
				got, want = c.Access(tag), ref.Access(tag)
			}
			if got != want {
				t.Fatalf("step %d: op %#x tag %#x returned %v, reference %v", i/2, op, tag, got, want)
			}
			acc, miss := c.Stats()
			refAcc, refMiss := ref.Stats()
			if acc != refAcc || miss != refMiss {
				t.Fatalf("step %d: stats %d/%d, reference %d/%d", i/2, acc, miss, refAcc, refMiss)
			}
			for _, probe := range []uint64{0, maxTag(sets)} {
				order, ok := c.order(probe)
				if !ok {
					t.Fatalf("step %d: empty slot before a resident one in set of %#x", i/2, probe)
				}
				if want := ref.order(probe); !slices.Equal(order, want) {
					t.Fatalf("step %d: set of %#x holds %x, reference %x", i/2, probe, order, want)
				}
			}
		}
	})
}
