package tpch

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/vmm"
)

// BenchmarkLayer measures the TPC-H scan's host cost per scanned row on
// Machine A under the tuned configuration, over a fixed-seed database.
// One op is one Scan of one lineitem row over four columns, by one thread
// walking the table in order (wrapping at its end), so the engine's
// bookkeeping allocations are part of the op:
//
//	columnar — MonetDB, one region per column
//	row      — PostgreSQL, one region per table, rows read whole
//	chunked  — Quickstep, one chunk per node per column (first touch)
//
// Run with a fixed iteration count, since simulated state depends on it:
//
//	go test ./internal/tpch -run '^$' -bench BenchmarkLayer -benchtime 200000x
func BenchmarkLayer(b *testing.B) {
	db := Generate(0.001, 1)
	for _, c := range []struct {
		name, engine string
		chunked      bool
	}{
		{"columnar", "MonetDB", false},
		{"row", "PostgreSQL", false},
		{"chunked", "Quickstep", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := machine.TunedConfig(machine.SpecA().HardwareThreads())
			if c.chunked {
				cfg.Policy = vmm.FirstTouch
			}
			e := NewHarnessStorage(machine.SpecA(), ProfileByName(c.engine), cfg, db, 1,
				StorageOptions{Chunked: c.chunked}).Engine
			cols := Resolve("lineitem", "shipdate", "discount", "quantity", "extendedprice")
			n := len(db.Lineitems)
			b.ReportAllocs()
			b.ResetTimer()
			e.M.Run(1, func(t *machine.Thread) {
				for i := 0; i < b.N; i++ {
					e.Scan(t, cols, i%n)
				}
			})
		})
	}
}
