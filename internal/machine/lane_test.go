package machine

import "testing"

// lane is the directory half of the per-node-group effect buffer the round
// engine used before the directory was written in place, kept verbatim
// over a base slice as the reference model for the group logs in round.go.
//
// The last-writer line directory has within-group read-your-writes
// semantics during a round: coherence tracking is immediate inside a
// node's cache domain, round-granular across domains.
type lane struct {
	// epoch-tagged overlay over the base directory: entries written this
	// round live in dirVal, marked by dirEpoch == epoch and listed in
	// dirLog for the boundary merge. Reads fall through to the (frozen)
	// base directory.
	epoch    uint32
	dirVal   []uint32
	dirEpoch []uint32
	dirLog   []uint32
}

// beginRound opens a fresh round for the lane: prior overlay entries
// expire by epoch bump, the write log resets.
func (ln *lane) beginRound() {
	ln.epoch++
	if ln.epoch == 0 {
		// Epoch wrapped: stale marks from 2^32 rounds ago would alias the
		// new epoch, so clear them once.
		for i := range ln.dirEpoch {
			ln.dirEpoch[i] = 0
		}
		ln.epoch = 1
	}
	ln.dirLog = ln.dirLog[:0]
}

// dirRead returns the directory entry at idx as this lane sees it: its
// own round-local write if present, the round-start base value otherwise.
func (ln *lane) dirRead(base []uint32, idx uint64) uint32 {
	if ln.dirEpoch[idx] == ln.epoch {
		return ln.dirVal[idx]
	}
	return base[idx]
}

// dirWrite records a directory write in the lane's overlay.
func (ln *lane) dirWrite(idx uint64, v uint32) {
	if ln.dirEpoch[idx] != ln.epoch {
		ln.dirEpoch[idx] = ln.epoch
		ln.dirLog = append(ln.dirLog, uint32(idx))
	}
	ln.dirVal[idx] = v
}

// mergeLane publishes a lane's round effects into base state: directory
// writes in log order (lanes merge in node order, so a line written by two
// nodes in one round deterministically keeps the higher node's entry).
func mergeLane(base []uint32, ln *lane) {
	for _, idx := range ln.dirLog {
		base[idx] = ln.dirVal[idx]
	}
}

// fuzzDirSize is the directory size FuzzDirectoryMatchesOverlay works on:
// small, so groups and rounds collide on entries often.
const fuzzDirSize = 16

// Fuzz op kinds, the top two bits of an op byte. The low four bits are a
// directory index, and the byte after the op is its argument.
const (
	opRead      = iota // read the entry (in a group's turn or the serial phase)
	opWrite            // write the argument to the entry
	opNextGroup        // end the turn; the next group is 1+(op&3) nodes on
	opEndRound         // end the turn and the round; back to the serial phase
)

// FuzzDirectoryMatchesOverlay drives the in-place directory with its
// per-group logs (Machine.beginGroup, dirWrite, endGroup, mergeDir) and
// the reference lane overlay through the same rounds: node-ordered group
// turns whose reads and writes hit a small index range, then serial-phase
// reads and writes after each merge. Every read must match the reference,
// the directory must be back at its round-start state after every turn,
// and it must equal the reference base after every merge.
//
// The first input byte picks the node count (1+(b&7)); with bit 3 set the
// group sequence starts 1+(b>>4) turns before its wrap, over marks stamped
// with stale low sequence numbers that alias unless the wrap clears them.
func FuzzDirectoryMatchesOverlay(f *testing.F) {
	w := func(idx byte) byte { return opWrite<<6 | idx }
	r := func(idx byte) byte { return opRead<<6 | idx }
	next := func(skip byte) byte { return opNextGroup<<6 | skip }
	end := byte(opEndRound << 6)
	// Two nodes write one entry in one round: each reads its own write,
	// the higher node wins the merge.
	f.Add([]byte{0x01,
		next(0), 0, w(3), 7, r(3), 0, next(0), 0, r(3), 0, w(3), 9, r(3), 0, end, 0, r(3), 0})
	// Serial writes between rounds become the next round's start state,
	// and a downgrade (write 0) overwrites an earlier write in one turn.
	f.Add([]byte{0x03,
		w(1), 5, w(2), 6, next(1), 0, r(1), 0, w(1), 0, r(1), 0, w(2), 8, next(2), 0, r(2), 0,
		w(2), 4, w(5), 3, r(1), 0, w(5), 0, next(0), 0, r(2), 0, r(5), 0})
	// Many rounds over four nodes, skipping nodes, with repeated writes to
	// the same entries inside one turn.
	f.Add([]byte{0x03,
		next(0), 0, w(0), 1, w(0), 2, w(15), 3, next(0), 0, w(15), 4, r(0), 0, next(1), 0, r(15), 0,
		w(4), 1, end, 0, w(4), 2, next(2), 0, r(4), 0, w(4), 3, next(0), 0, w(4), 5, end, 0,
		next(0), 0, w(7), 1, next(0), 0, w(7), 2, next(0), 0, w(7), 3, next(0), 0, r(7), 0, end, 0})
	// The group sequence wraps at node 1's turn in the first round: the
	// turns stamped 1 and 2 must not mistake the stale marks of entries 0,
	// 4 (1) and 1, 5 (2) for their own.
	f.Add([]byte{0x1b,
		next(0), 0, w(0), 1, next(0), 0, r(0), 0, w(0), 2, w(4), 3, r(0), 0, end, 0,
		r(0), 0, next(0), 0, w(1), 4, w(5), 5, next(0), 0, r(1), 0, w(1), 6, end, 0,
		next(1), 0, w(0), 7, next(1), 0, r(0), 0, end, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := data[0]
		data = data[1:]
		nodes := 1 + int(h&7)
		m := &Machine{writerDir: make([]uint32, fuzzDirSize), dirMark: make([]uint32, fuzzDirSize)}
		if h&8 != 0 {
			m.dirSeq = ^uint32(0) - uint32(h>>4)
			for i := range m.dirMark {
				m.dirMark[i] = 1 + uint32(i%4)
			}
		}
		base := make([]uint32, fuzzDirSize)
		lanes := make([]*lane, nodes)
		groups := make([]*schedGroup, nodes)
		for i := range lanes {
			lanes[i] = &lane{dirVal: make([]uint32, fuzzDirSize), dirEpoch: make([]uint32, fuzzDirSize)}
			groups[i] = &schedGroup{node: i}
		}

		var round []*schedGroup // this round's groups so far, node order
		var g *schedGroup       // the group whose turn it is, nil in the serial phase
		begin := func(node int) {
			g = groups[node]
			round = append(round, g)
			lanes[node].beginRound()
			m.beginGroup(g)
		}
		endTurn := func() {
			m.endGroup(g)
			for i := range base {
				if m.writerDir[i] != base[i] {
					t.Fatalf("after node %d's turn entry %d = %#x, round start %#x", g.node, i, m.writerDir[i], base[i])
				}
			}
		}
		endRound := func() {
			endTurn()
			for _, rg := range round {
				mergeLane(base, lanes[rg.node])
			}
			m.mergeDir(round)
			for i := range base {
				if m.writerDir[i] != base[i] {
					t.Fatalf("after merge entry %d = %#x, reference %#x", i, m.writerDir[i], base[i])
				}
			}
			round, g = round[:0], nil
		}

		for len(data) >= 2 {
			op, arg := data[0], data[1]
			data = data[2:]
			idx := uint64(op & (fuzzDirSize - 1))
			switch op >> 6 {
			case opRead:
				want := base[idx]
				if g != nil {
					want = lanes[g.node].dirRead(base, idx)
				}
				if got := m.writerDir[idx]; got != want {
					t.Fatalf("read entry %d = %#x, reference %#x", idx, got, want)
				}
			case opWrite:
				v := uint32(arg)
				if g != nil {
					lanes[g.node].dirWrite(idx, v)
				} else {
					base[idx] = v
				}
				m.dirWrite(g, idx, v)
			case opNextGroup:
				skip := int(op & 3)
				if g == nil {
					if skip < nodes {
						begin(skip)
					}
					continue
				}
				node := g.node + 1 + skip
				if node >= nodes {
					endRound()
					continue
				}
				endTurn()
				begin(node)
			case opEndRound:
				if g != nil {
					endRound()
				}
			}
		}
		if g != nil {
			endRound()
		}
	})
}
