package tpch

import (
	"slices"

	"repro/internal/machine"
	"repro/internal/numaop"
)

// Profile captures the architectural axes on which the five evaluated
// database systems differ. These are the properties that modulate how much
// the paper's application-agnostic tuning helps each engine in Figure 8.
type Profile struct {
	Name string
	// Columnar engines read only the referenced columns; row stores drag
	// the whole tuple through the cache hierarchy.
	Columnar bool
	// Workers returns the intra-query parallelism given the machine's
	// hardware threads. MySQL executes a query on one thread; PostgreSQL
	// caps its background workers; the in-memory engines use everything.
	Workers func(hwThreads int) int
	// TupleCycles is the per-tuple interpretation overhead (vectorized
	// engines amortize it; classic Volcano iterators pay per row).
	TupleCycles float64
	// AllocEvery issues one small bookkeeping allocation per N scanned
	// tuples (expression state, tuple copies); lower = more
	// allocator-sensitive. Zero disables.
	AllocEvery int
	// Materializes marks operator-at-a-time engines (MonetDB) that write
	// full intermediate results between operators.
	Materializes bool
}

// Profiles returns the five evaluated systems in the paper's order.
func Profiles() []Profile {
	return []Profile{
		{
			Name:     "MonetDB",
			Columnar: true,
			Workers:  func(hw int) int { return hw },
			// BAT-at-a-time execution: tiny per-tuple cost, but full
			// materialization between operators and lots of intermediate
			// buffer churn.
			TupleCycles:  6,
			AllocEvery:   6,
			Materializes: true,
		},
		{
			Name:     "PostgreSQL",
			Columnar: false,
			// Rigid parallel-worker planning: a few background workers at
			// best, and some plans run on the leader alone (the paper
			// blames exactly this for PostgreSQL's inconsistent gains).
			Workers:     func(hw int) int { return min(4, hw) },
			TupleCycles: 34,
			AllocEvery:  24,
		},
		{
			Name:        "MySQL",
			Columnar:    false,
			Workers:     func(hw int) int { return 1 },
			TupleCycles: 42,
			AllocEvery:  32,
		},
		{
			Name:        "DBMSx",
			Columnar:    true, // hybrid row/column store with columnar scans
			Workers:     func(hw int) int { return hw },
			TupleCycles: 10,
			AllocEvery:  16,
		},
		{
			Name:        "Quickstep",
			Columnar:    true,
			Workers:     func(hw int) int { return hw },
			TupleCycles: 8,
			AllocEvery:  96, // block-managed storage, few small allocations
		},
	}
}

// ProfileByName returns the named profile, panicking on unknown names.
func ProfileByName(name string) Profile {
	for _, p := range Profiles() {
		if p.Name == name {
			return p
		}
	}
	panic("tpch: unknown engine " + name)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// column is one scanned column: its name and its width in bytes for the
// scan cost model.
type column struct {
	name  string
	width uint64
}

// tableSchema is one table of the static schema: its name, its row count
// in a database, and its columns.
type tableSchema struct {
	name string
	rows func(db *DB) int
	cols []column
}

// schema is the static scan schema: every table, and each table's
// columns, in strictly increasing name order. Tables and columns load in
// this order, which fixes every simulated address, so reordering it moves
// every TPC-H artifact.
var schema = [...]tableSchema{
	{"customer", func(db *DB) int { return len(db.Customers) }, []column{
		{"acctbal", 8}, {"custkey", 4}, {"mktsegment", 1}, {"nationkey", 4}, {"phone", 8},
	}},
	{"lineitem", func(db *DB) int { return len(db.Lineitems) }, []column{
		{"commitdate", 4}, {"discount", 1}, {"extendedprice", 8}, {"linenumber", 1},
		{"linestatus", 1}, {"orderkey", 4}, {"partkey", 4}, {"quantity", 4},
		{"receiptdate", 4}, {"returnflag", 1}, {"shipdate", 4}, {"shipinstruct", 1},
		{"shipmode", 1}, {"suppkey", 4}, {"tax", 1},
	}},
	{"orders", func(db *DB) int { return len(db.Orders) }, []column{
		{"comment", 8}, {"custkey", 4}, {"orderdate", 4}, {"orderkey", 4},
		{"orderpriority", 1}, {"orderstatus", 1}, {"shippriority", 1}, {"totalprice", 8},
	}},
	{"part", func(db *DB) int { return len(db.Parts) }, []column{
		{"brand", 1}, {"container", 1}, {"name", 16}, {"partkey", 4},
		{"retailprice", 8}, {"size", 1}, {"type", 2},
	}},
	{"partsupp", func(db *DB) int { return len(db.PartSupps) }, []column{
		{"availqty", 4}, {"partkey", 4}, {"suppkey", 4}, {"supplycost", 8},
	}},
	{"supplier", func(db *DB) int { return len(db.Suppliers) }, []column{
		{"acctbal", 8}, {"comment", 8}, {"nationkey", 4}, {"suppkey", 4},
	}},
}

// Cols is a scan's column set resolved against the static schema: the
// table's index and, in the caller's order, each column's index in the
// table's column list. Queries resolve their handles once, outside the
// row loop, so a scanned row costs slice indexing, not name lookups.
type Cols struct {
	table int
	cols  []int
}

// Resolve returns the handle for the named columns of table, keeping the
// given column order (the order Scan reads them in). Every caller passes
// literals, so an unknown table or column is a bug: it panics, naming it.
func Resolve(table string, cols ...string) Cols {
	ti := slices.IndexFunc(schema[:], func(s tableSchema) bool { return s.name == table })
	if ti < 0 {
		panic("tpch: unknown table " + table)
	}
	h := Cols{table: ti, cols: make([]int, len(cols))}
	for i, name := range cols {
		ci := slices.IndexFunc(schema[ti].cols, func(c column) bool { return c.name == name })
		if ci < 0 {
			panic("tpch: unknown column " + table + "." + name)
		}
		h.cols[i] = ci
	}
	return h
}

// tableMem is a table's simulated storage image: either one contiguous
// region per column/row layout (the default, matching the paper's
// engines) or per-node chunks (chunked.go). Per-column slices follow the
// schema's column order.
type tableMem struct {
	rows     int
	rowWidth uint64
	rowBase  uint64   // row layout base (row stores)
	colBase  []uint64 // per-column bases (column stores)

	// Chunked storage (nil in single-region mode). layout carries the
	// shared row->chunk geometry; every column of a table splits at the
	// same rows, so one layout serves them all.
	layout   *numaop.ChunkedColumn
	colChunk []*numaop.ChunkedColumn
	rowChunk *numaop.ChunkedColumn
}

// Engine executes TPC-H queries on a machine under a profile.
type Engine struct {
	Prof Profile
	M    *machine.Machine
	DB   *DB

	tables     [len(schema)]tableMem // indexed like schema
	allocTick  []uint64              // per-thread bookkeeping allocation counters
	ring       []chunk               // engine-wide intermediate buffers in flight
	ringPos    int
	loadCycles float64
	wall       float64 // accumulated wall cycles of the running query

	chunked bool         // per-node chunked storage (chunked.go)
	cursors []scanCursor // per-thread chunk cursors for scalar Scan
}

// chunk is one in-flight intermediate buffer.
type chunk struct {
	addr uint64
	size uint64
}

// NewEngine loads db into m's simulated memory under the given profile,
// with the default single-region storage. See NewEngineStorage for the
// per-node chunked layout.
func NewEngine(prof Profile, m *machine.Machine, db *DB) *Engine {
	return NewEngineStorage(prof, m, db, StorageOptions{})
}

// loadSingle loads the database as one contiguous region per column (or
// per row layout). Loading is single-threaded (a restore/import), so
// First Touch places the database on the loader's node — the starting
// point of the paper's placement story.
func (e *Engine) loadSingle() {
	m := e.M
	res := m.Run(1, func(t *machine.Thread) {
		for ti := range e.tables {
			tm := &e.tables[ti]
			if !e.Prof.Columnar {
				tm.rowBase = t.Malloc(uint64(tm.rows) * tm.rowWidth)
				step := int(4096 / tm.rowWidth)
				if step < 1 {
					step = 1
				}
				t.WriteStrided(tm.rowBase, tm.rowWidth,
					uint64(step)*tm.rowWidth, (tm.rows+step-1)/step)
				continue
			}
			for _, c := range schema[ti].cols {
				w := c.width
				base := t.Malloc(uint64(tm.rows) * w)
				tm.colBase = append(tm.colBase, base)
				step := int(4096 / w) // touch each page
				t.WriteStrided(base, w, uint64(step)*w, (tm.rows+step-1)/step)
			}
		}
	})
	e.loadCycles = res.WallCycles
}

// Scan charges one row's worth of reads for the given columns, plus the
// engine's per-tuple interpretation cost and occasional bookkeeping
// allocations. With chunked storage, point addressing goes through a
// per-thread cursor (chunked.go) so chunk-index arithmetic amortizes over
// the cursor's chunk window instead of recurring per element.
func (e *Engine) Scan(t *machine.Thread, c Cols, i int) {
	tm := &e.tables[c.table]
	cols := schema[c.table].cols
	switch {
	case e.chunked && e.Prof.Columnar:
		bases := e.cursor(t, c.table, tm, i).bases
		for _, ci := range c.cols {
			w := cols[ci].width
			t.Read(bases[ci]+uint64(i)*w, w)
		}
	case e.chunked:
		t.Read(e.cursor(t, c.table, tm, i).rowBase+uint64(i)*tm.rowWidth, tm.rowWidth)
	case e.Prof.Columnar:
		for _, ci := range c.cols {
			w := cols[ci].width
			t.Read(tm.colBase[ci]+uint64(i)*w, w)
		}
	default:
		t.Read(tm.rowBase+uint64(i)*tm.rowWidth, tm.rowWidth)
	}
	t.Charge(e.Prof.TupleCycles)
	e.maybeAlloc(t)
}

// maybeAlloc issues the engine's bookkeeping allocation churn.
func (e *Engine) maybeAlloc(t *machine.Thread) {
	if e.Prof.AllocEvery == 0 {
		return
	}
	tick := &e.allocTick[t.ID()&255]
	*tick++
	if *tick%uint64(e.Prof.AllocEvery) == 0 {
		e.allocOnce(t, *tick)
	}
}

// allocOnce is one bookkeeping allocation at tick value tickVal: a
// vectorized intermediate buffer. Buffers flow between workers (exchange
// operators), so the thread freeing a buffer is rarely the one that
// allocated it — the cross-thread pattern that separates tbbmalloc from
// thread-cache designs at high parallelism.
func (e *Engine) allocOnce(t *machine.Thread, tickVal uint64) {
	size := uint64(512 << (tickVal % 3)) // 512B / 1KiB / 2KiB
	addr := t.Malloc(size)
	t.Write(addr, size)
	old := e.ring[e.ringPos]
	e.ring[e.ringPos] = chunk{addr: addr, size: size}
	e.ringPos = (e.ringPos + 1) % len(e.ring)
	if old.size > 0 {
		t.Free(old.addr, old.size)
	}
}

// Emit charges intermediate materialization for operator-at-a-time
// engines: the qualifying tuple is written to (and later re-read from) an
// intermediate buffer.
func (e *Engine) Emit(t *machine.Thread, buf *interBuf, width uint64) {
	if !e.Prof.Materializes {
		return
	}
	buf.push(t, width)
}

// interBuf models a materialized intermediate result: grows by doubling
// through the allocator, is re-read once, and freed.
type interBuf struct {
	addr uint64
	used uint64
	cap  uint64
}

func (b *interBuf) push(t *machine.Thread, width uint64) {
	if b.used+width > b.cap {
		newCap := b.cap * 2
		if newCap < 4096 {
			newCap = 4096
		}
		na := t.Malloc(newCap)
		if b.used > 0 {
			t.Read(b.addr, b.used)
			t.Write(na, b.used)
			t.Free(b.addr, b.cap)
		}
		b.addr, b.cap = na, newCap
	}
	t.Write(b.addr+b.used, width)
	b.used += width
}

// release re-reads the buffer (the downstream operator consuming it) and
// frees it.
func (b *interBuf) release(t *machine.Thread) {
	if b.cap == 0 {
		return
	}
	t.Read(b.addr, b.used)
	t.Free(b.addr, b.cap)
	b.addr, b.used, b.cap = 0, 0, 0
}

// Par runs fn over [0, n) split across the engine's workers, adds the
// phase's wall time to the current query's total, and returns the run
// result.
func (e *Engine) Par(n int, fn func(t *machine.Thread, lo, hi int)) machine.Result {
	w := e.Prof.Workers(e.M.Config().Threads)
	if w < 1 {
		w = 1
	}
	res := e.M.Run(w, func(t *machine.Thread) {
		lo := n * t.ID() / w
		hi := n * (t.ID() + 1) / w
		fn(t, lo, hi)
	})
	e.wall += res.WallCycles
	return res
}

// Serial runs fn on one thread (plan steps with no parallelism), counting
// its wall time toward the current query.
func (e *Engine) Serial(fn func(t *machine.Thread)) machine.Result {
	res := e.M.Run(1, fn)
	e.wall += res.WallCycles
	return res
}

// LoadCycles returns the (untimed) load-phase cost, for diagnostics.
func (e *Engine) LoadCycles() float64 { return e.loadCycles }
