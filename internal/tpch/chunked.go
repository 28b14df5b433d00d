package tpch

// Per-node chunked column storage, following the Chapel multi-ddata
// design (SNIPPETS.md §3): every table is split into one chunk per NUMA
// node, each chunk a separate allocation first-touched by a loader
// worker running on that node. Queries then schedule workers onto the
// chunk their node owns (ParTable) and scan whole chunk extents through
// the batched access path (ScanBlocks).
//
// The design's documented pitfall — recomputing the chunk index from the
// element index inside the access hot loop made Chapel's dsiAccess ~8x
// slower — shapes both access paths here: ScanBlocks resolves chunk
// arithmetic once per extent via numaop.ChunkedColumn.Extents, and the
// scalar Scan path amortizes it through a per-thread cursor that caches
// the current chunk's adjusted base addresses.

import (
	"repro/internal/machine"
	"repro/internal/numaop"
)

// StorageOptions selects the engine's storage layout.
type StorageOptions struct {
	// Chunked splits every table into one chunk per NUMA node, loaded in
	// parallel with one first-touching worker per node, instead of the
	// default single region loaded by one thread.
	Chunked bool
}

// NewEngineStorage loads db into m's simulated memory under the given
// profile and storage layout. StorageOptions{} reproduces NewEngine's
// single-region behaviour bit for bit.
func NewEngineStorage(prof Profile, m *machine.Machine, db *DB, opts StorageOptions) *Engine {
	e := &Engine{Prof: prof, M: m, DB: db}
	for ti := range e.tables {
		tm := &e.tables[ti]
		tm.rows = schema[ti].rows(db)
		for _, c := range schema[ti].cols {
			tm.rowWidth += c.width
		}
	}
	if opts.Chunked {
		e.chunked = true
		e.cursors = make([]scanCursor, 256)
		e.loadChunked()
	} else {
		e.loadSingle()
	}
	e.allocTick = make([]uint64, 256)
	e.ring = make([]chunk, 64)
	return e
}

// Chunked reports whether the engine uses per-node chunked storage.
func (e *Engine) Chunked() bool { return e.chunked }

// loadChunked loads every table as one chunk per NUMA node: the layout
// is fixed up front, then one worker per node allocates and page-touches
// its node's chunk of every column (under sparse pinning worker i runs
// on node i, so first touch places chunk i there; under OS-default
// placement the loader threads migrate and the layout decays — the
// sensitivity the numaware experiment measures).
func (e *Engine) loadChunked() {
	m := e.M
	nodes := m.Nodes()
	for ti := range e.tables {
		tm := &e.tables[ti]
		tm.layout = numaop.NewChunkedColumn(1, tm.rows, nodes)
		if !e.Prof.Columnar {
			tm.rowChunk = numaop.NewChunkedColumn(tm.rowWidth, tm.rows, nodes)
			continue
		}
		for _, c := range schema[ti].cols {
			tm.colChunk = append(tm.colChunk, numaop.NewChunkedColumn(c.width, tm.rows, nodes))
		}
	}
	res := m.Run(nodes, func(t *machine.Thread) {
		ci := t.ID()
		for ti := range e.tables {
			tm := &e.tables[ti]
			if ci >= tm.layout.Chunks() {
				continue
			}
			lo, hi := tm.layout.ChunkRange(ci)
			if hi == lo {
				continue
			}
			n := hi - lo
			if e.Prof.Columnar {
				for _, cc := range tm.colChunk {
					base := t.Malloc(cc.ChunkBytes(ci))
					cc.SetBase(ci, base)
					touchPages(t, base, cc.Width, n)
				}
			} else {
				rc := tm.rowChunk
				base := t.Malloc(rc.ChunkBytes(ci))
				rc.SetBase(ci, base)
				touchPages(t, base, rc.Width, n)
			}
		}
	})
	e.loadCycles = res.WallCycles
}

// touchPages first-touches a freshly allocated chunk of n elements of the
// given width, one write per 4KiB page — the same import cost model the
// single-region loader charges.
func touchPages(t *machine.Thread, base, width uint64, n int) {
	step := int(4096 / width)
	if step < 1 {
		step = 1
	}
	t.WriteStrided(base, width, uint64(step)*width, (n+step-1)/step)
}

// scanCursor caches one thread's current chunk window for the scalar
// Scan path: while row i stays within [lo, hi) the access is a plain
// base + i*width, with the chunk division paid once per window switch.
// bases hold each column's chunk base minus lo*width (wrapping uint64
// arithmetic, exact on re-add), so the hot path needs no subtraction
// either.
type scanCursor struct {
	table   int
	lo, hi  int
	rowBase uint64
	bases   []uint64 // per column, schema order
}

// cursor returns t's scan cursor positioned on the chunk holding row i
// of table ti, refilling it on a table or chunk switch.
func (e *Engine) cursor(t *machine.Thread, ti int, tm *tableMem, i int) *scanCursor {
	cur := &e.cursors[t.ID()&255]
	if cur.table == ti && i >= cur.lo && i < cur.hi {
		return cur
	}
	ci := tm.layout.ChunkOf(i)
	lo, hi := tm.layout.ChunkRange(ci)
	cur.table, cur.lo, cur.hi = ti, lo, hi
	if e.Prof.Columnar {
		cur.bases = cur.bases[:0]
		for _, cc := range tm.colChunk {
			cur.bases = append(cur.bases, cc.Base(ci)-uint64(lo)*cc.Width)
		}
	} else {
		cur.rowBase = tm.rowChunk.Base(ci) - uint64(lo)*tm.rowWidth
	}
	return cur
}

// ParTable runs fn over the rows of c's table split across the engine's
// workers. With single-region storage it is exactly Par(rows, fn). With
// chunked storage the split is affinity-matched: worker w serves chunk
// w%chunks — under sparse pinning the chunk its own node owns — and
// workers sharing a chunk sub-split its row range. When there are fewer
// workers than chunks (e.g. MySQL's single thread) it falls back to the
// even split.
func (e *Engine) ParTable(c Cols, fn func(t *machine.Thread, lo, hi int)) machine.Result {
	tm := &e.tables[c.table]
	if !e.chunked {
		return e.Par(tm.rows, fn)
	}
	w := e.Prof.Workers(e.M.Config().Threads)
	if w < 1 {
		w = 1
	}
	chunks := tm.layout.Chunks()
	res := e.M.Run(w, func(t *machine.Thread) {
		var lo, hi int
		if w < chunks {
			lo, hi = tm.rows*t.ID()/w, tm.rows*(t.ID()+1)/w
		} else {
			ci := t.ID() % chunks
			clo, chi := tm.layout.ChunkRange(ci)
			span := chi - clo
			kn := (w - ci + chunks - 1) / chunks // workers sharing this chunk
			rank := t.ID() / chunks
			lo, hi = clo+span*rank/kn, clo+span*(rank+1)/kn
		}
		fn(t, lo, hi)
	})
	e.wall += res.WallCycles
	return res
}

// ScanBlocks scans columns c of rows [lo, hi), invoking fn for each row.
// With single-region storage it is exactly the per-row Scan loop the
// queries always ran (scan, row body, scan, row body, ...). With chunked
// storage each chunk extent is read with ONE batched ReadRun per column
// — chunk arithmetic resolved once per extent, per the multi-ddata rule
// — before fn runs over the extent's rows.
func (e *Engine) ScanBlocks(t *machine.Thread, c Cols, lo, hi int, fn func(i int)) {
	if !e.chunked {
		for i := lo; i < hi; i++ {
			e.Scan(t, c, i)
			fn(i)
		}
		return
	}
	tm := &e.tables[c.table]
	for _, ext := range tm.layout.Extents(lo, hi) {
		elo, ehi := ext.Lo, ext.Lo+ext.Count
		if e.Prof.Columnar {
			for _, ci := range c.cols {
				tm.colChunk[ci].ReadRange(t, elo, ehi)
			}
		} else {
			tm.rowChunk.ReadRange(t, elo, ehi)
		}
		t.Charge(e.Prof.TupleCycles * float64(ext.Count))
		e.maybeAllocN(t, ext.Count)
		for i := elo; i < ehi; i++ {
			fn(i)
		}
	}
}

// maybeAllocN advances t's bookkeeping-allocation tick by n rows at
// once, issuing exactly the allocations n maybeAlloc calls would — the
// batched counterpart used by ScanBlocks.
func (e *Engine) maybeAllocN(t *machine.Thread, n int) {
	if e.Prof.AllocEvery == 0 || n <= 0 {
		return
	}
	every := uint64(e.Prof.AllocEvery)
	tick := &e.allocTick[t.ID()&255]
	start := *tick
	*tick += uint64(n)
	for v := start + every - start%every; v <= *tick; v += every {
		e.allocOnce(t, v)
	}
}
