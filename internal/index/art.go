package index

import (
	"encoding/binary"

	"repro/internal/machine"
)

// ART is an adaptive radix tree over big-endian 8-byte keys with the four
// classic node kinds (Node4/16/48/256) and lazy leaf expansion. The node
// kinds have very different footprints, so ART requests a wider variety of
// allocator size classes than the other indexes — the property the paper
// credits for its sensitivity to the allocator (Figure 7a).
type art struct {
	root *artNode
	n    int
}

type artKind uint8

const (
	artLeaf artKind = iota
	artNode4
	artNode16
	artNode48
	artNode256
)

// artNode is one radix node. Children are indexed by the next key byte;
// the representation switches as fanout grows, as in the original design.
type artNode struct {
	kind artKind
	addr uint64
	size uint64

	// Leaf payload.
	key uint64
	val uint64

	// Inner payload; nil on a leaf.
	kids *artChildren
}

// artChildren holds an inner node's children in a Go-side layout that
// follows its simulated kind. A Node4 or Node16 keeps its (key byte,
// child) pairs in keys[:n] and small[:n], in insertion order, and is
// searched linearly; grow moves the children of a node that becomes a
// Node48 into wide, indexed by the key byte, where they stay as it
// becomes a Node256.
type artChildren struct {
	n     int
	keys  [16]byte
	small [16]*artNode
	wide  *[256]*artNode
}

// child returns the child under key byte b, or nil.
func (n *artNode) child(b byte) *artNode {
	c := n.kids
	if c.wide != nil {
		return c.wide[b]
	}
	for i, k := range c.keys[:c.n] {
		if k == b {
			return c.small[i]
		}
	}
	return nil
}

// add stores child under key byte b, which n does not hold yet; grow
// must have made room for it.
func (n *artNode) add(b byte, child *artNode) {
	c := n.kids
	if c.wide != nil {
		c.wide[b] = child
	} else {
		c.keys[c.n] = b
		c.small[c.n] = child
	}
	c.n++
}

// replace stores child under key byte b in place of the child there.
func (n *artNode) replace(b byte, child *artNode) {
	c := n.kids
	if c.wide != nil {
		c.wide[b] = child
		return
	}
	for i, k := range c.keys[:c.n] {
		if k == b {
			c.small[i] = child
			return
		}
	}
}

// Simulated sizes per node kind, matching the C++ layouts.
func artSize(kind artKind) uint64 {
	switch kind {
	case artLeaf:
		return 24
	case artNode4:
		return 56 // header + 4 key bytes + 4 pointers
	case artNode16:
		return 160 // header + 16 key bytes + 16 pointers
	case artNode48:
		return 656 // header + 256-byte index + 48 pointers
	default:
		return 2064 // header + 256 pointers
	}
}

// kindFor returns the smallest node kind that fits n children.
func kindFor(n int) artKind {
	switch {
	case n <= 4:
		return artNode4
	case n <= 16:
		return artNode16
	case n <= 48:
		return artNode48
	default:
		return artNode256
	}
}

func newART() *art { return &art{} }

func (a *art) Name() string { return "ART" }
func (a *art) Len() int     { return a.n }

func keyBytes(key uint64) [8]byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], key)
	return b
}

func newArtLeaf(t *machine.Thread, key, val uint64) *artNode {
	n := &artNode{kind: artLeaf, key: key, val: val, size: artSize(artLeaf)}
	n.addr = t.Malloc(n.size)
	t.Write(n.addr, n.size)
	return n
}

func newArtInner(t *machine.Thread) *artNode {
	n := &artNode{kind: artNode4, size: artSize(artNode4), kids: &artChildren{}}
	n.addr = t.Malloc(n.size)
	t.Write(n.addr, n.size)
	return n
}

// grow upgrades a node to the next kind when one more child would exceed
// the current representation: allocate the bigger node, copy, free the
// old. A node that becomes a Node48 moves its children into wide.
func (n *artNode) grow(t *machine.Thread) {
	c := n.kids
	want := kindFor(c.n + 1)
	if want <= n.kind {
		return
	}
	if c.wide == nil && want >= artNode48 {
		c.wide = new([256]*artNode)
		for i, k := range c.keys[:c.n] {
			c.wide[k] = c.small[i]
		}
		c.small = [16]*artNode{}
	}
	oldAddr, oldSize := n.addr, n.size
	n.kind = want
	n.size = artSize(want)
	n.addr = t.Malloc(n.size)
	t.Read(oldAddr, oldSize)
	t.Write(n.addr, n.size)
	t.Free(oldAddr, oldSize)
}

func (a *art) Insert(t *machine.Thread, key, val uint64) {
	kb := keyBytes(key)
	if a.root == nil {
		a.root = newArtLeaf(t, key, val)
		a.n++
		return
	}
	var parent *artNode
	var parentByte byte
	node := a.root
	for depth := 0; ; depth++ {
		t.Read(node.addr, headerBytes(node))
		if node.kind == artLeaf {
			if node.key == key {
				node.val = val
				t.Write(node.addr, 8)
				return
			}
			// Split: replace the leaf with a chain of inner nodes down to
			// the first differing byte (no path compression; the join
			// workload's dense keys keep this shallow).
			inner := newArtInner(t)
			ob := keyBytes(node.key)
			top := inner
			d := depth
			for d < 7 && ob[d] == kb[d] {
				next := newArtInner(t)
				top.add(ob[d], next)
				t.Write(top.addr, 16)
				top = next
				d++
			}
			top.add(ob[d], node)
			top.add(kb[d], newArtLeaf(t, key, val))
			t.Write(top.addr, 16)
			if parent == nil {
				a.root = inner
			} else {
				parent.replace(parentByte, inner)
				t.Write(parent.addr, 16)
			}
			a.n++
			return
		}
		child := node.child(kb[depth])
		t.Charge(4) // child index lookup within the node
		if child == nil {
			leaf := newArtLeaf(t, key, val)
			node.grow(t)
			node.add(kb[depth], leaf)
			t.Write(node.addr, 16)
			a.n++
			return
		}
		parent, parentByte = node, kb[depth]
		node = child
	}
}

func headerBytes(n *artNode) uint64 {
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

func (a *art) Lookup(t *machine.Thread, key uint64) (uint64, bool) {
	kb := keyBytes(key)
	node := a.root
	for depth := 0; node != nil; depth++ {
		t.Read(node.addr, headerBytes(node))
		if node.kind == artLeaf {
			t.Charge(4)
			if node.key == key {
				return node.val, true
			}
			return 0, false
		}
		t.Charge(4)
		node = node.child(kb[depth])
	}
	return 0, false
}
