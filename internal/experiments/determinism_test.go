package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/report"
	"repro/internal/tpch"
)

// workers is the zero Options with an n-worker grid runner.
func workers(n int) Options { return Options{Runner: core.Runner{Workers: n}} }

// renderAll runs a driver and flattens its tables into one byte stream.
func renderAll(t *testing.T, id string, s Scale, o Options) string {
	t.Helper()
	d, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(s, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var sb strings.Builder
	for _, tab := range res.Tables {
		tab.Render(&sb)
		tab.RenderCSV(&sb)
	}
	return sb.String()
}

// resetCaches clears the dataset memo tables so each configuration's run
// exercises its own cache fills.
func resetCaches() {
	datagen.ResetCache()
	tpch.ResetGenCache()
}

// TestDriversDeterministicUnderParallelism is the tentpole guarantee:
// every registered experiment renders byte-identical tables whether its
// grid cells run serially, on four workers, or on four workers twice.
func TestDriversDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every driver three times")
	}
	for _, id := range Ids() {
		id := id
		t.Run(id, func(t *testing.T) {
			resetCaches()
			serial := renderAll(t, id, Tiny, workers(1))

			resetCaches()
			par := renderAll(t, id, Tiny, workers(4))
			if par != serial {
				t.Fatalf("%s: parallel-4 output differs from serial\nserial:\n%s\nparallel:\n%s",
					id, serial, par)
			}

			// Second parallel run without a cache reset: memoized datasets
			// must not perturb results either.
			again := renderAll(t, id, Tiny, workers(4))
			if again != par {
				t.Fatalf("%s: two parallel-4 runs differ", id)
			}
		})
	}
}

// traceArtifacts runs fig5a with cell tracing on and returns the Chrome
// trace export plus the JSONL stream with host_ns normalized to zero —
// every byte that should be reproducible.
func traceArtifacts(t *testing.T, o Options) (chrome, jsonl []byte) {
	t.Helper()
	resetCaches()
	d, err := Lookup("fig5a")
	if err != nil {
		t.Fatal(err)
	}
	o.Trace = true
	res, err := d.Run(Tiny, o)
	if err != nil {
		t.Fatal(err)
	}
	var procs []report.TraceProcess
	for i := range res.Records {
		rec := &res.Records[i]
		ev := rec.TraceEvents()
		if len(ev) == 0 {
			t.Fatalf("cell %s recorded no events under Options.Trace", rec.Cell)
		}
		procs = append(procs, report.TraceProcess{
			Name: res.Id + "/" + rec.Cell, FreqGHz: rec.FreqGHz, Events: ev,
		})
		rec.HostNS = 0 // the one nondeterministic field
	}
	var cb, jb bytes.Buffer
	if err := report.ChromeTrace(&cb, procs...); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jb, res.Records); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

// TestTraceDeterministicUnderParallelism extends the byte-identity
// guarantee to the new artifacts: the Chrome trace export and the JSONL
// records (host_ns normalized) must not depend on the worker count.
func TestTraceDeterministicUnderParallelism(t *testing.T) {
	chromeSerial, jsonlSerial := traceArtifacts(t, workers(1))
	if len(chromeSerial) == 0 || len(jsonlSerial) == 0 {
		t.Fatal("empty trace artifacts")
	}

	chromePar, jsonlPar := traceArtifacts(t, workers(4))
	if !bytes.Equal(chromeSerial, chromePar) {
		t.Error("Chrome trace differs between serial and parallel-4 runs")
	}
	if !bytes.Equal(jsonlSerial, jsonlPar) {
		t.Error("JSONL records differ between serial and parallel-4 runs")
	}

	chromeAgain, jsonlAgain := traceArtifacts(t, workers(4))
	if !bytes.Equal(chromePar, chromeAgain) {
		t.Error("Chrome trace differs between two parallel-4 runs")
	}
	if !bytes.Equal(jsonlPar, jsonlAgain) {
		t.Error("JSONL records differ between two parallel-4 runs")
	}
}

// profileArtifacts runs the profile driver and returns its JSONL stream
// (host_ns normalized) and folded-stack export — the acceptance artifacts
// that must not depend on the worker count.
func profileArtifacts(t *testing.T, o Options) (jsonl, folded []byte) {
	t.Helper()
	resetCaches()
	d, err := Lookup("profile")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(Tiny, o)
	if err != nil {
		t.Fatal(err)
	}
	var folds []report.FoldedProfile
	for i := range res.Records {
		rec := &res.Records[i]
		if rec.Profile == nil || len(rec.Breakdown) == 0 {
			t.Fatalf("cell %s has no cycle attribution", rec.Cell)
		}
		folds = append(folds, report.FoldedProfile{
			Name: res.Id + "/" + rec.Cell, Profile: rec.Profile,
		})
		rec.HostNS = 0 // the one nondeterministic field
	}
	var jb, fb bytes.Buffer
	if err := WriteJSONL(&jb, res.Records); err != nil {
		t.Fatal(err)
	}
	if err := report.FoldedStacks(&fb, folds...); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), fb.Bytes()
}

// TestProfileDeterministicUnderParallelism extends byte-identity to the
// profiler's artifacts: the profile experiment's JSONL records (host_ns
// normalized) and folded-stack export must match across serial, four
// workers, and a repeated parallel run.
func TestProfileDeterministicUnderParallelism(t *testing.T) {
	jsonlSerial, foldedSerial := profileArtifacts(t, workers(1))
	if len(jsonlSerial) == 0 || len(foldedSerial) == 0 {
		t.Fatal("empty profile artifacts")
	}

	jsonlPar, foldedPar := profileArtifacts(t, workers(4))
	if !bytes.Equal(jsonlSerial, jsonlPar) {
		t.Error("profile JSONL differs between serial and parallel-4 runs")
	}
	if !bytes.Equal(foldedSerial, foldedPar) {
		t.Error("folded stacks differ between serial and parallel-4 runs")
	}

	jsonlAgain, foldedAgain := profileArtifacts(t, workers(4))
	if !bytes.Equal(jsonlPar, jsonlAgain) {
		t.Error("profile JSONL differs between two parallel-4 runs")
	}
	if !bytes.Equal(foldedPar, foldedAgain) {
		t.Error("folded stacks differ between two parallel-4 runs")
	}
}

// serveArtifacts runs the serve driver and returns its JSONL stream
// (host_ns normalized) plus the rendered latency tables — every byte the
// acceptance criteria require to be reproducible.
func serveArtifacts(t *testing.T, o Options) (jsonl []byte, tables string) {
	t.Helper()
	resetCaches()
	d, err := Lookup("serve")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(Tiny, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Records {
		res.Records[i].HostNS = 0 // the one nondeterministic field
	}
	var jb bytes.Buffer
	if err := WriteJSONL(&jb, res.Records); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tab := range res.Tables {
		tab.Render(&sb)
		tab.RenderCSV(&sb)
	}
	return jb.Bytes(), sb.String()
}

// TestServeDeterministicUnderParallelism extends the byte-identity
// guarantee to the serving artifacts: the serve experiment's JSONL records
// (host_ns normalized) and its latency/SLO/tail tables must match across
// serial, four workers, and a repeated parallel run.
func TestServeDeterministicUnderParallelism(t *testing.T) {
	jsonlSerial, tablesSerial := serveArtifacts(t, workers(1))
	if len(jsonlSerial) == 0 || len(tablesSerial) == 0 {
		t.Fatal("empty serve artifacts")
	}

	jsonlPar, tablesPar := serveArtifacts(t, workers(4))
	if !bytes.Equal(jsonlSerial, jsonlPar) {
		t.Error("serve JSONL differs between serial and parallel-4 runs")
	}
	if tablesSerial != tablesPar {
		t.Error("serve tables differ between serial and parallel-4 runs")
	}

	jsonlAgain, tablesAgain := serveArtifacts(t, workers(4))
	if !bytes.Equal(jsonlPar, jsonlAgain) {
		t.Error("serve JSONL differs between two parallel-4 runs")
	}
	if tablesPar != tablesAgain {
		t.Error("serve tables differ between two parallel-4 runs")
	}
}

// TestServeAttributesTail pins the tentpole's attribution requirement:
// a Tiny serve run must attribute its p999 requests to profile buckets
// and report the campaign's regret row.
func TestServeAttributesTail(t *testing.T) {
	resetCaches()
	r, err := Serve(Tiny, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 4 {
		t.Fatalf("got %d serving cells, want 4", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.Out.Metrics.Requests == 0 {
			t.Errorf("%s: no measured requests", c.Name)
		}
		if len(c.Out.Tail.Buckets) == 0 {
			t.Errorf("%s: p999 tail not attributed to any profile bucket", c.Name)
		}
		if c.Out.Tail.Count == 0 {
			t.Errorf("%s: empty p999 tail set", c.Name)
		}
	}
	if r.Regret.AdvisedKey == "" || r.Regret.BestKey == "" || r.Regret.BestP99 <= 0 {
		t.Errorf("regret row incomplete: %+v", r.Regret)
	}
	if r.Regret.Objective != "p99_latency" {
		t.Errorf("regret objective %q", r.Regret.Objective)
	}
	// The campaign's records must carry the objective label so artifacts
	// say what was optimized.
	labeled := false
	for _, rec := range r.Records {
		if rec.Labels["objective"] == "p99_latency" {
			labeled = true
			break
		}
	}
	if !labeled {
		t.Error("no campaign record carries the objective label")
	}
}

// TestReadJSONLAcceptsV1 pins backward compatibility: records written
// under the v1 schema (no breakdown/profile fields) still validate.
func TestReadJSONLAcceptsV1(t *testing.T) {
	v1 := `{"schema":"repro/bench/v1","experiment":"fig2","cell":"c1",` +
		`"config":{"threads":1,"placement":"Sparse","policy":"FirstTouch",` +
		`"preferred_node":0,"allocator":"ptmalloc","autonuma":false,"thp":false,"seed":1},` +
		`"seed":1,"wall_cycles":100,"counters":{"thread_migrations":0,"cache_accesses":0,` +
		`"cache_misses":0,"tlb_misses":0,"local_accesses":0,"remote_accesses":0,` +
		`"minor_faults":0,"page_migrations":0,"huge_promotions":0,"huge_splits":0},"host_ns":5}` + "\n"
	recs, err := ReadJSONL(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 record rejected: %v", err)
	}
	if len(recs) != 1 || recs[0].Schema != SchemaV1 {
		t.Fatalf("unexpected parse: %+v", recs)
	}
	bad := strings.ReplaceAll(v1, "repro/bench/v1", "repro/bench/v0")
	if _, err := ReadJSONL(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

// TestReadJSONLRejectsTrailingData pins one object per line: data after
// a valid record's object fails the read, and the error names its line.
func TestReadJSONLRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Record{{Experiment: "fig2", Cell: "c1"}}); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSuffix(buf.String(), "\n")
	if _, err := ReadJSONL(strings.NewReader(line + "\n")); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	for _, tail := range []string{" garbage", "]", `{"schema":"bogus"}`} {
		_, err := ReadJSONL(strings.NewReader(line + "\n" + line + tail + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("trailing %q: got %v, want an error naming line 2", tail, err)
		}
	}
}

// TestJSONLRoundTrip pushes real records through the writer and the
// strict reader: the round-trip must preserve every serialized field.
func TestJSONLRoundTrip(t *testing.T) {
	resetCaches()
	d, err := Lookup("fig3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(Tiny, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("fig3 produced no records")
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Records) {
		t.Fatalf("round-trip: got %d records, want %d", len(got), len(res.Records))
	}
	for i := range got {
		want := res.Records[i]
		if got[i].Schema != SchemaVersion {
			t.Errorf("record %d: schema %q", i, got[i].Schema)
		}
		if got[i].Experiment != want.Experiment || got[i].Cell != want.Cell {
			t.Errorf("record %d: identity %s/%s, want %s/%s",
				i, got[i].Experiment, got[i].Cell, want.Experiment, want.Cell)
		}
		if got[i].WallCycles != want.WallCycles {
			t.Errorf("record %d: wall %v, want %v", i, got[i].WallCycles, want.WallCycles)
		}
		if got[i].Config != want.Config {
			t.Errorf("record %d: config %+v, want %+v", i, got[i].Config, want.Config)
		}
	}
}

// TestRecordsCoverCells checks a sample of drivers emit one record per
// grid cell with the experiment id stamped.
func TestRecordsCoverCells(t *testing.T) {
	want := map[string]int{
		"fig2":         35, // 7 allocators x 5 thread counts
		"fig5a":        8,  // 4 policies x {on, off}
		"fig5b-series": 4,  // 4 policies
		"table3":       2,
		"profile":      3,  // default, pinned, tuned
		"adapt":        30, // 3 machines x 2 workloads x 5 configs
		"serve-adapt":  6,  // 3 machines x {static, adaptive}
	}
	for id, n := range want {
		resetCaches()
		d, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(Tiny, Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Records) != n {
			t.Errorf("%s: got %d records, want %d", id, len(res.Records), n)
		}
		seen := map[string]bool{}
		for _, rec := range res.Records {
			if rec.Experiment != id {
				t.Errorf("%s: record %q stamped experiment %q", id, rec.Cell, rec.Experiment)
			}
			if rec.Cell == "" {
				t.Errorf("%s: record with empty cell name", id)
			}
			if seen[rec.Cell] {
				t.Errorf("%s: duplicate cell name %q", id, rec.Cell)
			}
			seen[rec.Cell] = true
			if rec.WallCycles <= 0 {
				t.Errorf("%s/%s: wall cycles %v", id, rec.Cell, rec.WallCycles)
			}
		}
	}
}

// TestRegistryCoversRenderables pins the registry's table counts so a
// driver that silently drops a table is caught.
func TestRegistryCoversRenderables(t *testing.T) {
	want := map[string]int{
		"fig2":         2, // time + overhead
		"fig5a":        2, // cycles + LAR
		"fig5b-series": 1,
		"fig6w1":       3, // machines A, B, C
		"fig6w2":       3,
		"fig6w3":       3,
		"fig7":         5, // 4 index kinds + scalability
		"table2":       1,
		"ablation":     1,
		"preferred":    1,
		"profile":      5, // Table III extended + breakdown + 3 matrices
		"tune":         4, // strategies + top-k + marginals + regret
		"serve":        4, // summary + histogram + tail attribution + regret
		"adapt":        2, // throughput comparison + orchestrator actions
		"serve-adapt":  3, // p999 delta + blame + decision journal
	}
	for id, n := range want {
		d, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(Tiny, Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) != n {
			t.Errorf("%s: got %d tables, want %d", id, len(res.Tables), n)
		}
		for i, tab := range res.Tables {
			if tab == nil {
				t.Errorf("%s: table %d is nil", id, i)
			}
		}
		if res.Id != id {
			t.Errorf("result id %q, want %q", res.Id, id)
		}
	}
}

// TestDescriptors checks the typed registry listing is complete and
// carries metadata for every entry.
func TestDescriptors(t *testing.T) {
	ds := Descriptors()
	if len(ds) != len(Ids()) {
		t.Fatalf("Descriptors() returned %d entries, want %d", len(ds), len(Ids()))
	}
	for _, d := range ds {
		if d.Id == "" || d.Title == "" || d.Artifact == "" || d.DefaultScale == "" {
			t.Errorf("descriptor %+v has empty metadata", d)
		}
	}
}

// TestLookupUnknown verifies id validation surfaces as an error, not a
// panic, so numabench can exit cleanly on typos.
func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("expected error for unknown id")
	}
	if len(Ids()) != len(registry) {
		t.Fatal("Ids() must list every registered experiment")
	}
}
