package index

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/vmm"
	"repro/internal/xrand"
)

func run1(t *testing.T, fn func(th *machine.Thread)) machine.Result {
	t.Helper()
	m := machine.NewB()
	m.Configure(machine.RunConfig{
		Threads:   1,
		Placement: machine.PlaceSparse,
		Policy:    vmm.FirstTouch,
		Allocator: "jemalloc",
		Seed:      1,
	})
	return m.Run(1, fn)
}

func TestAllIndexesInsertLookup(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run1(t, func(th *machine.Thread) {
				idx := New(kind)
				const n = 3000
				r := xrand.New(9)
				keys := r.Perm(n) // shuffled dense keys, like the join build
				for _, k := range keys {
					idx.Insert(th, uint64(k), uint64(k)*3)
				}
				if idx.Len() != n {
					t.Fatalf("Len = %d, want %d", idx.Len(), n)
				}
				for k := 0; k < n; k++ {
					v, ok := idx.Lookup(th, uint64(k))
					if !ok || v != uint64(k)*3 {
						t.Fatalf("Lookup(%d) = %d,%v want %d,true", k, v, ok, uint64(k)*3)
					}
				}
				if _, ok := idx.Lookup(th, n+100); ok {
					t.Fatal("found absent key")
				}
			})
		})
	}
}

func TestAllIndexesOverwrite(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run1(t, func(th *machine.Thread) {
				idx := New(kind)
				idx.Insert(th, 5, 10)
				idx.Insert(th, 5, 20)
				if idx.Len() != 1 {
					t.Fatalf("Len = %d after overwrite, want 1", idx.Len())
				}
				if v, _ := idx.Lookup(th, 5); v != 20 {
					t.Fatalf("Lookup = %d, want 20", v)
				}
			})
		})
	}
}

func TestAllIndexesSparseKeys(t *testing.T) {
	// Wide keys stress ART's byte decomposition and B+tree splits.
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run1(t, func(th *machine.Thread) {
				idx := New(kind)
				r := xrand.New(4)
				ref := map[uint64]uint64{}
				for i := 0; i < 2000; i++ {
					k := r.Uint64()
					ref[k] = k ^ 0xdead
					idx.Insert(th, k, k^0xdead)
				}
				for k, v := range ref {
					got, ok := idx.Lookup(th, k)
					if !ok || got != v {
						t.Fatalf("Lookup(%#x) = %#x,%v want %#x", k, got, ok, v)
					}
				}
			})
		})
	}
}

func TestIndexMatchesMapProperty(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run1(t, func(th *machine.Thread) {
				idx := New(kind)
				ref := map[uint64]uint64{}
				f := func(ops []uint16) bool {
					for _, op := range ops {
						k := uint64(op % 512)
						v := uint64(op)
						idx.Insert(th, k, v)
						ref[k] = v
						got, ok := idx.Lookup(th, k)
						if !ok || got != ref[k] {
							return false
						}
					}
					return len(ref) == idx.Len()
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

func TestBTreeScanOrdered(t *testing.T) {
	run1(t, func(th *machine.Thread) {
		b := newBTree()
		r := xrand.New(2)
		for _, k := range r.Perm(500) {
			b.Insert(th, uint64(k), uint64(k))
		}
		var got []uint64
		b.Scan(th, 100, func(k, v uint64) bool {
			got = append(got, k)
			return len(got) < 50
		})
		if len(got) != 50 {
			t.Fatalf("scan returned %d keys", len(got))
		}
		for i, k := range got {
			if k != uint64(100+i) {
				t.Fatalf("scan[%d] = %d, want %d", i, k, 100+i)
			}
		}
	})
}

func TestARTUsesVariedSizeClasses(t *testing.T) {
	// ART's defining allocator profile: at least three distinct node
	// sizes requested while building over dense keys.
	m := machine.NewB()
	m.Configure(machine.RunConfig{Threads: 1, Placement: machine.PlaceSparse, Allocator: "jemalloc", Seed: 1})
	sizes := map[uint64]bool{}
	m.Run(1, func(th *machine.Thread) {
		idx := newART()
		for k := uint64(0); k < 2000; k++ {
			idx.Insert(th, k, k)
		}
		// Walk the tree and collect node sizes.
		var walk func(n *artNode)
		walk = func(n *artNode) {
			sizes[n.size] = true
			for _, c := range artKids(n) {
				walk(c)
			}
		}
		walk(idx.root)
	})
	if len(sizes) < 3 {
		t.Errorf("ART should use several node size classes, got %v", sizes)
	}
}

func TestSkipListDeterministicBuild(t *testing.T) {
	build := func() int {
		s := newSkipList()
		var level int
		run1(t, func(th *machine.Thread) {
			for k := uint64(0); k < 1000; k++ {
				s.Insert(th, k, k)
			}
			level = s.level
		})
		return level
	}
	if build() != build() {
		t.Error("skip list towers must be deterministic")
	}
}

func TestLookupCostOrdering(t *testing.T) {
	// Figure 7e shape: ART and B+tree lookups should be cheaper than
	// Skip List pointer chasing at equal sizes.
	cost := func(kind Kind) float64 {
		var cycles float64
		run1(t, func(th *machine.Thread) {
			idx := New(kind)
			r := xrand.New(3)
			for _, k := range r.Perm(20000) {
				idx.Insert(th, uint64(k), uint64(k))
			}
			start := th.Cycles()
			for i := 0; i < 5000; i++ {
				idx.Lookup(th, uint64(r.Intn(20000)))
			}
			cycles = th.Cycles() - start
		})
		return cycles
	}
	art := cost(ARTKind)
	bt := cost(BTreeKind)
	sl := cost(SkipListKind)
	if art >= sl || bt >= sl {
		t.Errorf("ART (%v) and B+tree (%v) should beat Skip List (%v)", art, bt, sl)
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("R-tree")
}

// refART is the map-based ART that art's kind-shaped child storage
// replaced, kept verbatim (names aside) as the reference model art must
// match in every simulated number: one Go map of children per inner
// node, whatever its kind.
type refART struct {
	root *refArtNode
	n    int
}

type refArtNode struct {
	kind artKind
	addr uint64
	size uint64

	// Leaf payload.
	key uint64
	val uint64

	// Inner payload: child byte -> node. We keep a single map Go-side for
	// all kinds; the kind determines the simulated size and access cost.
	children map[byte]*refArtNode
}

func (a *refART) Name() string { return "ART" }
func (a *refART) Len() int     { return a.n }

func newRefArtLeaf(t *machine.Thread, key, val uint64) *refArtNode {
	n := &refArtNode{kind: artLeaf, key: key, val: val, size: artSize(artLeaf)}
	n.addr = t.Malloc(n.size)
	t.Write(n.addr, n.size)
	return n
}

func newRefArtInner(t *machine.Thread) *refArtNode {
	n := &refArtNode{kind: artNode4, size: artSize(artNode4), children: map[byte]*refArtNode{}}
	n.addr = t.Malloc(n.size)
	t.Write(n.addr, n.size)
	return n
}

// grow upgrades a node to the next kind when its fanout exceeds the
// current representation: allocate the bigger node, copy, free the old.
func (n *refArtNode) grow(t *machine.Thread) {
	want := kindFor(len(n.children))
	if want <= n.kind {
		return
	}
	oldAddr, oldSize := n.addr, n.size
	n.kind = want
	n.size = artSize(want)
	n.addr = t.Malloc(n.size)
	t.Read(oldAddr, oldSize)
	t.Write(n.addr, n.size)
	t.Free(oldAddr, oldSize)
}

func (a *refART) Insert(t *machine.Thread, key, val uint64) {
	kb := keyBytes(key)
	if a.root == nil {
		a.root = newRefArtLeaf(t, key, val)
		a.n++
		return
	}
	var parent *refArtNode
	var parentByte byte
	node := a.root
	for depth := 0; ; depth++ {
		t.Read(node.addr, refHeaderBytes(node))
		if node.kind == artLeaf {
			if node.key == key {
				node.val = val
				t.Write(node.addr, 8)
				return
			}
			// Split: replace the leaf with a chain of inner nodes down to
			// the first differing byte (no path compression; the join
			// workload's dense keys keep this shallow).
			inner := newRefArtInner(t)
			ob := keyBytes(node.key)
			top := inner
			d := depth
			for d < 7 && ob[d] == kb[d] {
				next := newRefArtInner(t)
				top.children[ob[d]] = next
				t.Write(top.addr, 16)
				top = next
				d++
			}
			top.children[ob[d]] = node
			top.children[kb[d]] = newRefArtLeaf(t, key, val)
			t.Write(top.addr, 16)
			if parent == nil {
				a.root = inner
			} else {
				parent.children[parentByte] = inner
				t.Write(parent.addr, 16)
			}
			a.n++
			return
		}
		child, ok := node.children[kb[depth]]
		t.Charge(4) // child index lookup within the node
		if !ok {
			node.children[kb[depth]] = newRefArtLeaf(t, key, val)
			node.grow(t)
			t.Write(node.addr, 16)
			a.n++
			return
		}
		parent, parentByte = node, kb[depth]
		node = child
	}
}

func refHeaderBytes(n *refArtNode) uint64 {
	if n.kind == artLeaf {
		return n.size
	}
	// Reading a child pointer touches the header and the index arrays but
	// not all 256 pointers; charge the representative prefix.
	switch n.kind {
	case artNode4, artNode16:
		return n.size
	default:
		return 72 // header + key-index byte + one pointer line
	}
}

func (a *refART) Lookup(t *machine.Thread, key uint64) (uint64, bool) {
	kb := keyBytes(key)
	node := a.root
	for depth := 0; node != nil; depth++ {
		t.Read(node.addr, refHeaderBytes(node))
		if node.kind == artLeaf {
			t.Charge(4)
			if node.key == key {
				return node.val, true
			}
			return 0, false
		}
		t.Charge(4)
		node = node.children[kb[depth]]
	}
	return 0, false
}

// artKids lists an inner node's children; a leaf has none.
func artKids(n *artNode) []*artNode {
	c := n.kids
	switch {
	case c == nil:
		return nil
	case c.wide == nil:
		return c.small[:c.n]
	}
	var kids []*artNode
	for _, k := range c.wide {
		if k != nil {
			kids = append(kids, k)
		}
	}
	return kids
}

// artSizes and refArtSizes list the simulated size of every node of a
// tree, sorted: equal lists are equal multisets of node kinds.
func artSizes(n *artNode) []uint64 {
	sizes := []uint64{n.size}
	for _, c := range artKids(n) {
		sizes = append(sizes, artSizes(c)...)
	}
	slices.Sort(sizes)
	return sizes
}

func refArtSizes(n *refArtNode) []uint64 {
	sizes := []uint64{n.size}
	for _, c := range n.children { //rangecheck:ok sizes are sorted
		sizes = append(sizes, refArtSizes(c)...)
	}
	slices.Sort(sizes)
	return sizes
}

// artRun is what one build-and-probe of an ART leaves behind: the
// simulated results of the build and of the probe, the probe's answers,
// the key count and the node sizes.
type artRun struct {
	build, probe machine.Result
	vals         []uint64
	found        []bool
	n            int
	sizes        []uint64
}

// runART builds idx from keys (value = key xor the insert's position, so
// a later insert of a key overwrites the earlier value) on a fresh
// machine, then looks probes up from four threads; sizes lists idx's node
// sizes once it is built.
func runART(sp machine.Spec, cfg machine.RunConfig, idx Index, sizes func() []uint64, keys, probes []uint64) artRun {
	m := machine.New(sp)
	m.Configure(cfg)
	var r artRun
	r.build = m.Run(1, func(t *machine.Thread) {
		for i, k := range keys {
			idx.Insert(t, k, k^uint64(i))
		}
	})
	const threads = 4
	r.vals = make([]uint64, len(probes))
	r.found = make([]bool, len(probes))
	r.probe = m.Run(threads, func(t *machine.Thread) {
		for i := t.ID(); i < len(probes); i += threads {
			r.vals[i], r.found[i] = idx.Lookup(t, probes[i])
		}
	})
	r.n = idx.Len()
	r.sizes = sizes()
	return r
}

func TestARTMatchesReference(t *testing.T) {
	// The kind-shaped child storage changes host bookkeeping only: on
	// every machine, under the default and the tuned configuration, art
	// must reproduce the map-based reference's build and probe results,
	// answers and node kinds exactly. Dense shuffled keys take the join's
	// path through Node256s, random keys spread over Node4s and Node16s,
	// and rewriting keys exercises overwrites; the probes mix present
	// and absent keys.
	dense := make([]uint64, 0, 10000)
	for _, r := range datagen.Join(10000, 1, 3).R {
		dense = append(dense, r.Key)
	}
	rng := xrand.New(5)
	random := make([]uint64, 3000)
	for i := range random {
		random[i] = rng.Uint64()
	}
	rewrites := append(append([]uint64{}, random[:1500]...), random[:500]...)
	rewrites = append(rewrites, random[1000:1500]...)
	probesFor := func(keys []uint64) []uint64 {
		probes := append([]uint64{}, keys...)
		for i := 0; i < len(keys); i += 3 {
			probes = append(probes, keys[i]^1<<(i%64), uint64(len(keys)+i))
		}
		return probes
	}
	keysets := []struct {
		name string
		keys []uint64
	}{{"dense", dense}, {"random", random}, {"rewrites", rewrites}}
	specs := []func() machine.Spec{machine.SpecA, machine.SpecB, machine.SpecC, machine.SpecD, machine.SpecE}
	for _, spec := range specs {
		sp := spec()
		threads := sp.HardwareThreads()
		for _, cfg := range []struct {
			name string
			cfg  machine.RunConfig
		}{
			{"default", machine.DefaultConfig(threads)},
			{"tuned", machine.TunedConfig(threads)},
		} {
			for _, ks := range keysets {
				name := fmt.Sprintf("%s/%s/%s", sp.Name, cfg.name, ks.name)
				probes := probesFor(ks.keys)
				a, ref := newART(), &refART{}
				got := runART(sp, cfg.cfg, a, func() []uint64 { return artSizes(a.root) }, ks.keys, probes)
				want := runART(sp, cfg.cfg, ref, func() []uint64 { return refArtSizes(ref.root) }, ks.keys, probes)
				if got.build != want.build || got.probe != want.probe {
					t.Errorf("%s: results diverge from the reference:\n got build %+v probe %+v\nwant build %+v probe %+v",
						name, got.build, got.probe, want.build, want.probe)
				}
				if !slices.Equal(got.vals, want.vals) || !slices.Equal(got.found, want.found) || got.n != want.n {
					t.Errorf("%s: lookups or Len diverge from the reference", name)
				}
				if !slices.Equal(got.sizes, want.sizes) {
					t.Errorf("%s: node sizes diverge from the reference", name)
				}
			}
		}
	}
}
