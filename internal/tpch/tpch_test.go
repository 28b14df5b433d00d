package tpch

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/vmm"
)

const testSF = 0.002

func testDB(t *testing.T) *DB {
	t.Helper()
	return Generate(testSF, 42)
}

func testCfg() machine.RunConfig {
	return machine.RunConfig{
		Threads:   8,
		Placement: machine.PlaceSparse,
		Policy:    vmm.Interleave,
		Allocator: "tbbmalloc",
		AutoNUMA:  false,
		THP:       false,
		Seed:      5,
	}
}

func newTestEngine(t *testing.T, prof Profile, db *DB) *Engine {
	t.Helper()
	m := machine.NewB()
	m.Configure(testCfg())
	return NewEngine(prof, m, db)
}

func TestGeneratorShape(t *testing.T) {
	db := testDB(t)
	if len(db.Nations) != 25 || len(db.Regions) != 5 {
		t.Fatal("geography tables must be fixed size")
	}
	if len(db.PartSupps) != len(db.Parts)*4 {
		t.Fatalf("partsupp = %d, want 4 per part", len(db.PartSupps))
	}
	if len(db.Lineitems) < len(db.Orders) {
		t.Fatal("at least one lineitem per order")
	}
	// Cardinality ratios follow the spec: 15 customers per supplier.
	if got := float64(len(db.Customers)) / float64(len(db.Suppliers)); got < 10 || got > 20 {
		t.Errorf("customer:supplier ratio = %v, want about 15", got)
	}
	// Referential integrity.
	for _, o := range db.Orders {
		if int(o.CustKey) >= len(db.Customers) {
			t.Fatal("dangling custkey")
		}
	}
	for i, l := range db.Lineitems {
		if int(l.OrderKey) >= len(db.Orders) || int(l.PartKey) >= len(db.Parts) || int(l.SuppKey) >= len(db.Suppliers) {
			t.Fatalf("lineitem %d dangles", i)
		}
		if l.ShipDate <= db.Orders[l.OrderKey].OrderDate {
			t.Fatalf("lineitem %d shipped before its order", i)
		}
		if l.ReceiptDate <= l.ShipDate {
			t.Fatalf("lineitem %d received before shipping", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := Generate(testSF, 7), Generate(testSF, 7)
	if len(a.Lineitems) != len(b.Lineitems) {
		t.Fatal("sizes differ")
	}
	for i := range a.Lineitems {
		if a.Lineitems[i] != b.Lineitems[i] {
			t.Fatal("same seed must generate identical data")
		}
	}
}

func TestLineitemsOf(t *testing.T) {
	db := testDB(t)
	total := 0
	for i := range db.Orders {
		lines := db.LineitemsOf(i)
		if len(lines) < 1 || len(lines) > 7 {
			t.Fatalf("order %d has %d lines", i, len(lines))
		}
		for _, l := range lines {
			if l.OrderKey != db.Orders[i].OrderKey {
				t.Fatalf("order %d owns a foreign lineitem", i)
			}
		}
		total += len(lines)
	}
	if total != len(db.Lineitems) {
		t.Fatalf("clustered ranges cover %d of %d lineitems", total, len(db.Lineitems))
	}
}

func TestAllQueriesRunAndReturnWork(t *testing.T) {
	db := testDB(t)
	e := newTestEngine(t, ProfileByName("Quickstep"), db)
	for q := 1; q <= NumQueries; q++ {
		res := e.RunQuery(q)
		if res.Wall <= 0 {
			t.Errorf("Q%d charged no time", q)
		}
	}
}

func TestChecksumsEngineInvariant(t *testing.T) {
	// The same database must yield identical answers on every engine
	// profile — layout and parallelism change cost, never results.
	db := testDB(t)
	var base []int64
	for _, prof := range Profiles() {
		e := newTestEngine(t, prof, db)
		var checks []int64
		for q := 1; q <= NumQueries; q++ {
			checks = append(checks, e.RunQuery(q).Check)
		}
		if base == nil {
			base = checks
			continue
		}
		for q := 0; q < NumQueries; q++ {
			if checks[q] != base[q] {
				t.Errorf("%s Q%d check = %d, others got %d", prof.Name, q+1, checks[q], base[q])
			}
		}
	}
}

func TestChecksumsConfigInvariant(t *testing.T) {
	db := testDB(t)
	run := func(cfg machine.RunConfig) []int64 {
		m := machine.NewB()
		m.Configure(cfg)
		e := NewEngine(ProfileByName("MonetDB"), m, db)
		var checks []int64
		for q := 1; q <= NumQueries; q++ {
			checks = append(checks, e.RunQuery(q).Check)
		}
		return checks
	}
	tuned := run(testCfg())
	def := run(machine.DefaultConfig(8))
	for q := 0; q < NumQueries; q++ {
		if tuned[q] != def[q] {
			t.Errorf("Q%d result differs between configs: %d vs %d", q+1, tuned[q], def[q])
		}
	}
}

func TestSelectivitySanity(t *testing.T) {
	db := testDB(t)
	e := newTestEngine(t, ProfileByName("Quickstep"), db)
	// Q1 covers ~98% of lineitem: its checksum includes the row count, so
	// it must be large and positive.
	if c := e.RunQuery(1).Check; c <= int64(len(db.Lineitems)) {
		t.Errorf("Q1 checksum %d implausibly small", c)
	}
	// Q6: a narrow conjunctive filter must select something but far from
	// everything. Reconstruct the reference directly.
	var want int64
	lo, hi := int32(MkDate(1994, 1, 1)), int32(MkDate(1995, 1, 1))
	n := 0
	for i := range db.Lineitems {
		l := &db.Lineitems[i]
		if l.ShipDate >= lo && l.ShipDate < hi && l.Discount >= 5 && l.Discount <= 7 && l.Quantity < 24 {
			want += l.ExtendedPrice * int64(l.Discount)
			n++
		}
	}
	if got := e.RunQuery(6).Check; got != want/100 {
		t.Errorf("Q6 = %d, reference %d", got, want/100)
	}
	if n == 0 || n > len(db.Lineitems)/5 {
		t.Errorf("Q6 selected %d of %d rows; selectivity off", n, len(db.Lineitems))
	}
	// Q13 counts every customer exactly once: checksum >= customer count.
	if c := e.RunQuery(13).Check; c < int64(len(db.Customers)) {
		t.Errorf("Q13 checksum %d below customer count", c)
	}
}

func TestReferenceQ12(t *testing.T) {
	db := testDB(t)
	e := newTestEngine(t, ProfileByName("MySQL"), db)
	var hm, lm, hs, ls int64
	lo, hi := int32(MkDate(1994, 1, 1)), int32(MkDate(1995, 1, 1))
	for i := range db.Lineitems {
		l := &db.Lineitems[i]
		if (l.ShipMode != 2 && l.ShipMode != 5) || l.ReceiptDate < lo || l.ReceiptDate >= hi ||
			l.CommitDate >= l.ReceiptDate || l.ShipDate >= l.CommitDate {
			continue
		}
		high := db.Orders[l.OrderKey].OrderPriority <= 1
		switch {
		case l.ShipMode == 2 && high:
			hm++
		case l.ShipMode == 2:
			lm++
		case high:
			hs++
		default:
			ls++
		}
	}
	want := hm*1000 + lm*100 + hs*10 + ls
	if got := e.RunQuery(12).Check; got != want {
		t.Errorf("Q12 = %d, reference %d", got, want)
	}
}

func TestParallelEnginesFasterThanMySQL(t *testing.T) {
	db := testDB(t)
	my := newTestEngine(t, ProfileByName("MySQL"), db)
	monet := newTestEngine(t, ProfileByName("MonetDB"), db)
	myWall := my.RunQuery(1).Wall
	moWall := monet.RunQuery(1).Wall
	if moWall >= myWall {
		t.Errorf("MonetDB Q1 (%v) should beat single-threaded MySQL (%v)", moWall, myWall)
	}
}

func TestHarnessWarmRuns(t *testing.T) {
	db := testDB(t)
	h := NewHarness(machine.SpecB(), ProfileByName("Quickstep"), testCfg(), db, 2)
	wall, res := h.Measure(6)
	if wall <= 0 || res.Check == 0 {
		t.Fatalf("harness measure: wall=%v check=%d", wall, res.Check)
	}
}

func TestDateHelpers(t *testing.T) {
	if YearOf(MkDate(1995, 6, 17)) != 1995 {
		t.Error("YearOf(MkDate(1995,...)) != 1995")
	}
	if MkDate(1992, 1, 1) != 0 {
		t.Error("calendar must start at 1992-01-01")
	}
	if MkDate(1994, 1, 1) <= MkDate(1993, 12, 1) {
		t.Error("dates must be monotone")
	}
}

func TestTypeHelpers(t *testing.T) {
	id := TypeOf(0, 0, 3) // ECONOMY ANODIZED STEEL
	if TypeSyl1(id) != 0 || TypeSyl2of(id) != 0 || TypeSyl3(id) != 3 {
		t.Errorf("type round-trip broken for id %d", id)
	}
	if NumTypes != 150 {
		t.Errorf("NumTypes = %d, want 150", NumTypes)
	}
	if NumContainers != 40 {
		t.Errorf("NumContainers = %d, want 40", NumContainers)
	}
}

func TestProfileByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ProfileByName("SQLite")
}

func newChunkedTestEngine(t *testing.T, prof Profile, db *DB) *Engine {
	t.Helper()
	m := machine.NewB()
	cfg := testCfg()
	cfg.Policy = vmm.FirstTouch // chunked placement relies on first touch
	m.Configure(cfg)
	return NewEngineStorage(prof, m, db, StorageOptions{Chunked: true})
}

func TestChunkedStorageChecksumInvariant(t *testing.T) {
	// Chunked per-node storage changes cost, never answers: every query's
	// checksum must match the single-region engine on a columnar and a
	// row-store profile.
	db := testDB(t)
	for _, name := range []string{"Quickstep", "MySQL"} {
		prof := ProfileByName(name)
		single := newTestEngine(t, prof, db)
		chunked := newChunkedTestEngine(t, prof, db)
		if !chunked.Chunked() || single.Chunked() {
			t.Fatal("storage mode flags wrong")
		}
		for q := 1; q <= NumQueries; q++ {
			sc := single.RunQuery(q).Check
			cc := chunked.RunQuery(q).Check
			if sc != cc {
				t.Errorf("%s Q%d: chunked check %d != single %d", name, q, cc, sc)
			}
		}
	}
}

func TestChunkedStorageDeterministic(t *testing.T) {
	db := testDB(t)
	run := func() []QueryResult {
		e := newChunkedTestEngine(t, ProfileByName("Quickstep"), db)
		var out []QueryResult
		for q := 1; q <= NumQueries; q++ {
			out = append(out, e.RunQuery(q))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("Q%d not deterministic: %+v vs %+v", i+1, a[i], b[i])
		}
	}
}

func TestChunkedLoadIsParallelAcrossNodes(t *testing.T) {
	// The chunked loader runs one first-touching worker per node, so its
	// load phase should beat the single-threaded restore on a machine
	// where the database spans several chunks.
	db := testDB(t)
	prof := ProfileByName("Quickstep")
	single := newTestEngine(t, prof, db)
	chunked := newChunkedTestEngine(t, prof, db)
	if chunked.LoadCycles() >= single.LoadCycles() {
		t.Errorf("chunked load (%v cycles) should beat single-threaded load (%v cycles)",
			chunked.LoadCycles(), single.LoadCycles())
	}
}

func TestScanBlocksSingleModeIsScanLoop(t *testing.T) {
	// In single-region mode ScanBlocks must be bit-identical to the
	// per-row Scan loop the queries always ran — same cycles, same
	// allocator state — so converting queries to it cannot shift the
	// default path.
	db := testDB(t)
	prof := ProfileByName("Quickstep")
	cols := Resolve("lineitem", "shipdate", "discount")
	n := len(db.Lineitems)

	loop := newTestEngine(t, prof, db)
	loop.M.ResetCounters()
	rLoop := loop.M.Run(4, func(th *machine.Thread) {
		lo, hi := n*th.ID()/4, n*(th.ID()+1)/4
		for i := lo; i < hi; i++ {
			loop.Scan(th, cols, i)
		}
	})

	blocks := newTestEngine(t, prof, db)
	blocks.M.ResetCounters()
	rBlocks := blocks.M.Run(4, func(th *machine.Thread) {
		lo, hi := n*th.ID()/4, n*(th.ID()+1)/4
		blocks.ScanBlocks(th, cols, lo, hi, func(int) {})
	})

	if rLoop.WallCycles != rBlocks.WallCycles {
		t.Errorf("single-mode ScanBlocks cycles %v != Scan loop cycles %v",
			rBlocks.WallCycles, rLoop.WallCycles)
	}
	if rLoop.Counters != rBlocks.Counters {
		t.Errorf("single-mode ScanBlocks counters diverge from Scan loop:\n%+v\nvs\n%+v",
			rBlocks.Counters, rLoop.Counters)
	}
}

func TestSchemaSortedByName(t *testing.T) {
	// The schema's order is the load order, which fixes every simulated
	// address: tables, and each table's columns, must be in strictly
	// increasing name order.
	for i, tbl := range schema {
		if i > 0 && schema[i-1].name >= tbl.name {
			t.Errorf("table %q listed after %q", tbl.name, schema[i-1].name)
		}
		for j := 1; j < len(tbl.cols); j++ {
			if tbl.cols[j-1].name >= tbl.cols[j].name {
				t.Errorf("%s: column %q listed after %q", tbl.name, tbl.cols[j].name, tbl.cols[j-1].name)
			}
		}
	}
}

func TestResolveUnknownPanics(t *testing.T) {
	for _, c := range []struct {
		table string
		cols  []string
		want  string
	}{
		{"nation", []string{"nationkey"}, "nation"},
		{"lineitem", []string{"shipdate", "comment"}, "lineitem.comment"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("Resolve(%q, %q) panic = %q, want it to name %q", c.table, c.cols, msg, c.want)
				}
			}()
			Resolve(c.table, c.cols...)
		}()
	}
}
