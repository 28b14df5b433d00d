package cli

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/span"
	"repro/internal/tune"
)

// TestFlagParity pins the shared flag names: both CLIs register this
// exact set, so renaming one here renames it everywhere.
func TestFlagParity(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f.Register(fs)
	want := []string{"cpuprofile", "json", "memprofile", "spans", "trace", "validate"}
	var got []string
	fs.VisitAll(func(fl *flag.Flag) { got = append(got, fl.Name) })
	if len(got) != len(want) {
		t.Fatalf("registered flags %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered flags %v, want %v", got, want)
		}
	}
}

func testRecord(cell string) experiments.Record {
	return experiments.Record{
		Schema:     experiments.SchemaVersion,
		Experiment: "test",
		Cell:       cell,
	}
}

// validate runs the -validate dispatcher on path and returns its summary
// line.
func validate(path string) (string, error) {
	var out bytes.Buffer
	f := Flags{Validate: path}
	done, err := f.HandleValidate(&out)
	if !done {
		return "", errors.New("HandleValidate ignored -validate")
	}
	return out.String(), err
}

func TestAppendAndValidateJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.jsonl")
	if err := AppendJSONL(path, []experiments.Record{testRecord("a")}); err != nil {
		t.Fatal(err)
	}
	// Append must extend, not truncate.
	if err := AppendJSONL(path, []experiments.Record{testRecord("b")}); err != nil {
		t.Fatal(err)
	}
	got, err := validate(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := path + ": 2 records, schema repro/bench/v2\n"; got != want {
		t.Fatalf("validate = %q, want %q", got, want)
	}
	if err := os.WriteFile(path, []byte(`{"bogus":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := validate(path); err == nil {
		t.Fatal("-validate accepted a schemaless record")
	}
}

// TestWriteAndValidateSpans exercises the span JSONL plumbing and the
// schema-dispatching -validate path on every artifact type: each file
// validates under its own reader, and data after a line's object is
// rejected with that line named.
func TestWriteAndValidateSpans(t *testing.T) {
	dir := t.TempDir()
	spath := filepath.Join(dir, "s.jsonl")
	spans := []span.Span{
		{ID: 1, Kind: span.KindRequest, Name: "point", Seq: 0, Thread: 0, Start: 0, End: 10},
		{ID: 2, Parent: 1, Kind: span.KindService, Name: "point", Seq: 0, Thread: 0, Start: 2, End: 9},
	}
	if err := WriteSpans(spath, spans); err != nil {
		t.Fatal(err)
	}
	rpath := filepath.Join(dir, "r.jsonl")
	if err := AppendJSONL(rpath, []experiments.Record{testRecord("a"), testRecord("b")}); err != nil {
		t.Fatal(err)
	}
	tpath := filepath.Join(dir, "t.jsonl")
	trial := tune.Record{Campaign: "sha/W1/A", Key: "k", Point: tune.PointJSON{
		Placement: "Sparse", Policy: "First Touch", Allocator: "ptmalloc", AutoNUMA: "off", THP: "off",
	}}
	var tb bytes.Buffer
	if err := tune.WriteJSONL(&tb, []tune.Record{trial, trial}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tpath, tb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, want string }{
		{spath, "2 spans, schema repro/spans/v1"},
		{rpath, "2 records, schema repro/bench/v2"},
		{tpath, "2 trials, schema repro/tune/v1"},
	} {
		got, err := validate(c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if want := c.path + ": " + c.want + "\n"; got != want {
			t.Errorf("validate = %q, want %q", got, want)
		}
		data, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		trailing := append(bytes.TrimSuffix(data, []byte("\n")), " ]\n"...)
		if err := os.WriteFile(c.path, trailing, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := validate(c.path); err == nil || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("%s: trailing data on line 2 gave %v", c.path, err)
		}
	}
}

// TestAttachTraceAndTraceOf runs a tiny workload on a traced machine and
// checks the collected process carries events and snapshots.
func TestAttachTraceAndTraceOf(t *testing.T) {
	m := machine.NewB()
	cfg := machine.DefaultConfig(4)
	cfg.AutoNUMA = true
	m.Configure(cfg)
	AttachTrace(m)
	m.Run(4, func(th *machine.Thread) {
		base := th.Malloc(1 << 16)
		for i := 0; i < 200; i++ {
			th.Write(base+uint64(i)*64, 64)
		}
		th.Free(base, 1<<16)
	})
	tp, ok := TraceOf("cell", m)
	if !ok {
		t.Fatal("TraceOf found no events on a traced machine")
	}
	if tp.Name != "cell" || tp.FreqGHz != m.Spec.FreqGHz || len(tp.Events) == 0 {
		t.Fatalf("TraceOf = %+v", tp)
	}

	// An untraced machine yields nothing.
	m2 := machine.NewB()
	m2.Configure(machine.DefaultConfig(4))
	if _, ok := TraceOf("cell", m2); ok {
		t.Fatal("TraceOf reported a trace for an untraced machine")
	}
}

// TestRecordCollectors checks RecordTraces/RecordFolded use the id/cell
// naming the determinism tests pin down and skip unprofiled records.
func TestRecordCollectors(t *testing.T) {
	m := machine.NewB()
	m.Configure(machine.DefaultConfig(2))
	m.Observe(machine.ObserveOptions{Profile: true})
	m.Run(2, func(th *machine.Thread) { th.Charge(100) })
	res := &experiments.Result{Id: "exp", Records: []experiments.Record{
		{Cell: "plain"},
		{Cell: "profiled", Profile: m.Profile()},
	}}
	folded := RecordFolded(res)
	if len(folded) != 1 || folded[0].Name != "exp/profiled" {
		t.Fatalf("RecordFolded = %+v", folded)
	}
	if procs := RecordTraces(res); len(procs) != 0 {
		t.Fatalf("RecordTraces invented %d processes for untraced records", len(procs))
	}
}

// TestRecordTracesCarrySpans checks each traced cell's process carries
// exactly its own Cell-stamped spans, so the Chrome trace renders request
// lifelines next to that cell's machine events.
func TestRecordTracesCarrySpans(t *testing.T) {
	r, err := experiments.Serve(experiments.Tiny, experiments.Options{
		Trace: true, Spans: true, Serve: experiments.ServeOptions{Requests: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Spans) == 0 {
		t.Fatal("serve collected no spans")
	}
	res := &experiments.Result{Id: "serve", Records: r.Records, Spans: r.Spans}
	procs := RecordTraces(res)
	if len(procs) == 0 {
		t.Fatal("no traced processes")
	}
	total := 0
	for _, p := range procs {
		cell := strings.TrimPrefix(p.Name, "serve/")
		for _, s := range p.Spans {
			if s.Cell != cell {
				t.Fatalf("process %s carries span for cell %s", p.Name, s.Cell)
			}
		}
		total += len(p.Spans)
	}
	if total != len(r.Spans) {
		t.Fatalf("processes carry %d spans, result has %d", total, len(r.Spans))
	}
}

func TestWriteFoldedAndChromeTrace(t *testing.T) {
	m := machine.NewB()
	m.Configure(machine.DefaultConfig(2))
	m.Observe(machine.ObserveOptions{Profile: true})
	AttachTrace(m)
	m.Run(2, func(th *machine.Thread) {
		base := th.Malloc(4096)
		th.Write(base, 64)
		th.Free(base, 4096)
	})

	dir := t.TempDir()
	fp := filepath.Join(dir, "p.folded")
	if err := WriteFolded(fp, []report.FoldedProfile{{Name: "c", Profile: m.Profile()}}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "c;thread 0;") {
		t.Fatalf("folded output missing frames:\n%s", b)
	}

	tp, ok := TraceOf("c", m)
	if !ok {
		t.Fatal("no trace")
	}
	cp := filepath.Join(dir, "t.json")
	if err := WriteChromeTrace(cp, []report.TraceProcess{tp}); err != nil {
		t.Fatal(err)
	}
	if b, err = os.ReadFile(cp); err != nil || len(b) == 0 {
		t.Fatalf("chrome trace: %v, %d bytes", err, len(b))
	}
}

// TestStartHostProfiles exercises the pprof plumbing end to end.
func TestStartHostProfiles(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
	}
	stop, err := f.StartHostProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{f.CPUProfile, f.MemProfile} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: %v (size %v)", p, err, fi)
		}
	}

	// The zero value is a no-op pipeline.
	stop, err = (&Flags{}).StartHostProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
