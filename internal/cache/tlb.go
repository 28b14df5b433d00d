package cache

// TLB models a core's translation lookaside buffer with separate entry
// arrays for 4KiB and 2MiB pages, as in Table II of the paper. A huge
// mapping covers 512x the address range per entry, which is the entire
// benefit Transparent Hugepages buys.
type TLB struct {
	small *Cache // tags are 4KiB virtual page numbers
	huge  *Cache // tags are 2MiB virtual page numbers
}

// NewTLB builds a TLB with the given 4KiB and 2MiB entry counts and
// associativity. A zero hugeEntries disables the huge array (accesses to
// huge pages then always miss the TLB's huge side and fall back to walks),
// mirroring machines without 2MiB TLB capacity.
func NewTLB(smallEntries, hugeEntries, ways int) *TLB {
	t := &TLB{small: New(smallEntries, ways)}
	if hugeEntries > 0 {
		t.huge = New(hugeEntries, ways)
	}
	return t
}

// Access looks up the translation for the page identified by vpn (a 4KiB
// virtual page number). If the backing mapping is huge, the lookup uses the
// 2MiB array keyed by the huge-page number. It reports a TLB hit.
func (t *TLB) Access(vpn uint64, huge bool) bool {
	if huge {
		if t.huge == nil {
			return false
		}
		return t.huge.Access(vpn >> 9) // 512 base pages per huge page
	}
	return t.small.Access(vpn)
}

// Repeat counts a re-lookup of the translation the previous Access with
// the same huge flag looked up, with no operation on the TLB in between
// (consecutive lines of one page). It is state-identical to that Access
// hitting again and reports a hit, except for a huge lookup with no 2MiB
// array, which misses without touching any counter, as Access does.
func (t *TLB) Repeat(huge bool) bool {
	if !huge {
		t.small.Repeat()
		return true
	}
	if t.huge == nil {
		return false
	}
	t.huge.Repeat()
	return true
}

// Flush drops all cached translations (context switch / migration).
func (t *TLB) Flush() {
	t.small.Flush()
	if t.huge != nil {
		t.huge.Flush()
	}
}

// InvalidatePage drops the translation for vpn in both arrays, as the
// kernel does when remapping (page migration, hugepage split/promote).
func (t *TLB) InvalidatePage(vpn uint64) {
	t.small.Invalidate(vpn)
	if t.huge != nil {
		t.huge.Invalidate(vpn >> 9)
	}
}

// Stats returns combined access and miss counts across both arrays.
func (t *TLB) Stats() (accesses, misses uint64) {
	a, m := t.small.Stats()
	if t.huge != nil {
		ha, hm := t.huge.Stats()
		a += ha
		m += hm
	}
	return a, m
}
