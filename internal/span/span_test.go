package span

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func sampleSpans() []Span {
	return []Span{
		{ID: 0x10, Kind: KindSession, Name: "session", Seq: -1, Session: 3, Thread: -1, Start: 0, End: 9000},
		{ID: 0x21, Parent: 0x10, Kind: KindRequest, Name: "point", Seq: 0, Session: 3, Thread: 1, Start: 0, End: 4000},
		{ID: 0x22, Parent: 0x21, Kind: KindQueueWait, Name: "point", Seq: 0, Session: 3, Thread: 1, Start: 0, End: 500},
		{ID: 0x23, Parent: 0x21, Kind: KindService, Name: "point", Seq: 0, Session: 3, Thread: 1,
			Start: 1000, End: 4500, GStart: 20000, GEnd: 23500,
			Buckets:  map[string]float64{"page_migration": 900, "compute": 2000},
			Events:   map[string]uint64{"page_migration/autonuma": 1, "page_migration/orchestrator": 2},
			Counters: map[string]uint64{"remote_accesses": 7}},
		{ID: 0x24, Parent: 0x23, Kind: KindPhase, Name: "probe", Seq: 0, Session: 3, Thread: 1, Start: 1000, End: 3000},
	}
}

// TestRoundTrip pushes spans through the writer and strict reader: every
// serialized field must survive, and the schema must be stamped.
func TestRoundTrip(t *testing.T) {
	in := sampleSpans()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip: got %d spans, want %d", len(out), len(in))
	}
	for i := range out {
		if out[i].Schema != Schema {
			t.Errorf("span %d: schema %q", i, out[i].Schema)
		}
		if out[i].ID != in[i].ID || out[i].Parent != in[i].Parent ||
			out[i].Kind != in[i].Kind || out[i].Name != in[i].Name ||
			out[i].Seq != in[i].Seq || out[i].Session != in[i].Session ||
			out[i].Thread != in[i].Thread ||
			out[i].Start != in[i].Start || out[i].End != in[i].End ||
			out[i].GStart != in[i].GStart || out[i].GEnd != in[i].GEnd {
			t.Errorf("span %d drifted: got %+v want %+v", i, out[i], in[i])
		}
	}
	svc := out[3]
	if svc.Buckets["page_migration"] != 900 || svc.Events["page_migration/orchestrator"] != 2 ||
		svc.Counters["remote_accesses"] != 7 {
		t.Errorf("service span payload drifted: %+v", svc)
	}
}

// TestWriteDeterministic pins byte-identity: serializing the same spans
// twice must produce the same bytes (the encoder sorts map keys).
func TestWriteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two serializations of the same spans differ")
	}
}

// TestWriteMatchesEncodingJSON holds the span writer's own encoder to
// encoding/json, byte for byte, on values no JSON input can carry (NaN,
// ±Inf, invalid UTF-8) and on the edges of its number and string
// formats. Where want is set, the line must also contain it.
func TestWriteMatchesEncodingJSON(t *testing.T) {
	base := func() Span {
		return Span{ID: 1, Kind: KindService, Name: "point", Start: 1, End: 2,
			Buckets: map[string]float64{"compute": 1}, Events: map[string]uint64{"page_migration/os": 1},
			Counters: map[string]uint64{"cache_misses": 1}}
	}
	odd := []struct{ name, s string }{
		{"invalid UTF-8", "a\xffb\xc3"},
		{"control bytes", "\x00\x01\x1f\b\f\n\r\t\x7f"},
		{"HTML", "<a href=x>&amp;</a>"},
		{"U+2028/2029", "line\u2028para\u2029\u00e9"},
		{"quotes", `"\`},
	}
	type tc struct {
		name    string
		edit    func(*Span)
		want    string
		wantErr bool
	}
	cases := []tc{
		{name: "NaN start", edit: func(s *Span) { s.Start = math.NaN() }, wantErr: true},
		{name: "+Inf end", edit: func(s *Span) { s.End = math.Inf(1) }, wantErr: true},
		{name: "-Inf g_end", edit: func(s *Span) { s.GEnd = math.Inf(-1) }, wantErr: true},
		{name: "NaN bucket", edit: func(s *Span) { s.Buckets["compute"] = math.NaN() }, wantErr: true},
		{name: "-0 start", edit: func(s *Span) { s.Start = math.Copysign(0, -1) }, want: `"start":-0,`},
		{name: "-0 g_start", edit: func(s *Span) { s.GStart = math.Copysign(0, -1) }},
		{name: "empty maps", edit: func(s *Span) {
			s.Buckets, s.Events, s.Counters = map[string]float64{}, map[string]uint64{}, map[string]uint64{}
		}},
	}
	for _, f := range []struct {
		x    float64
		want string
	}{
		{9.99e-7, "9.99e-7"}, {1e-6, "0.000001"}, {1e20, "100000000000000000000"},
		{1e21, "1e+21"}, {5e-324, "5e-324"}, {math.MaxFloat64, "1.7976931348623157e+308"},
	} {
		cases = append(cases,
			tc{name: "start " + f.want, edit: func(s *Span) { s.Start, s.End = -f.x, f.x }, want: `"start":-` + f.want},
			tc{name: "bucket " + f.want, edit: func(s *Span) { s.Buckets["compute"] = f.x }, want: `"compute":` + f.want + "}"})
	}
	for _, o := range odd {
		cases = append(cases,
			tc{name: "cell " + o.name, edit: func(s *Span) { s.Cell = o.s }},
			tc{name: "name " + o.name, edit: func(s *Span) { s.Name = o.s }},
			tc{name: "keys " + o.name, edit: func(s *Span) {
				s.Buckets[o.s] = 2
				s.Events[o.s] = 2
				s.Counters[o.s] = 2
			}})
	}
	for _, c := range cases {
		s := base()
		c.edit(&s)
		var got, want bytes.Buffer
		err := WriteJSONL(&got, []Span{s})
		ref := s
		ref.Schema = Schema
		refErr := json.NewEncoder(&want).Encode(&ref)
		switch {
		case c.wantErr != (err != nil) || c.wantErr != (refErr != nil):
			t.Errorf("%s: error %v, encoding/json's %v, want an error: %v", c.name, err, refErr, c.wantErr)
		case !bytes.Equal(got.Bytes(), want.Bytes()):
			t.Errorf("%s: differs from encoding/json:\n got %s\nwant %s", c.name, got.Bytes(), want.Bytes())
		case !strings.Contains(got.String(), c.want):
			t.Errorf("%s: %s does not contain %s", c.name, got.Bytes(), c.want)
		}
	}
}

// TestStrictReader pins the reader's rejection contract.
func TestStrictReader(t *testing.T) {
	good := `{"schema":"repro/spans/v1","id":1,"kind":"request","name":"point","seq":0,"session":0,"thread":0,"start":0,"end":10}`
	cases := map[string]string{
		"wrong schema":  strings.Replace(good, "spans/v1", "spans/v0", 1),
		"zero id":       strings.Replace(good, `"id":1`, `"id":0`, 1),
		"unknown kind":  strings.Replace(good, `"kind":"request"`, `"kind":"mystery"`, 1),
		"end < start":   strings.Replace(good, `"end":10`, `"end":-1`, 1),
		"unknown field": strings.Replace(good, `"seq":0`, `"seq":0,"bogus":1`, 1),
	}
	if _, err := ReadJSONL(strings.NewReader(good + "\n")); err != nil {
		t.Fatalf("valid span rejected: %v", err)
	}
	for name, line := range cases {
		if _, err := ReadJSONL(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadJSONLRejectsTrailingData pins one object per line: data after
// a valid span's object fails the read, and the error names its line.
func TestReadJSONLRejectsTrailingData(t *testing.T) {
	good := `{"schema":"repro/spans/v1","id":1,"kind":"request","name":"point","seq":0,"session":0,"thread":0,"start":0,"end":10}`
	for _, tail := range []string{" garbage", "]", `{"schema":"bogus"}`} {
		_, err := ReadJSONL(strings.NewReader(good + "\n" + good + tail + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("trailing %q: got %v, want an error naming line 2", tail, err)
		}
	}
}

// TestBlame checks the attribution math: mechanism cycles split across
// initiators by event counts, with the unknown fallback, and tail shares
// computed over the tail cohort only.
func TestBlame(t *testing.T) {
	spans := []Span{
		// Tail request: 600 page_migration cycles split 1:2 between
		// autonuma and orchestrator; 300 thread_migration cycles with no
		// matching event (unknown).
		{ID: 0x31, Kind: KindRequest, Seq: 0, Thread: 0, Start: 0, End: 100},
		{ID: 0x32, Parent: 0x31, Kind: KindService, Seq: 0, Thread: 0, Start: 0, End: 1000,
			Buckets: map[string]float64{"page_migration": 600, "thread_migration": 300},
			Events:  map[string]uint64{"page_migration/autonuma": 1, "page_migration/orchestrator": 2}},
		// Non-tail request: clean service window, no migration cycles.
		{ID: 0x41, Kind: KindRequest, Seq: 1, Thread: 1, Start: 0, End: 100},
		{ID: 0x42, Parent: 0x41, Kind: KindService, Seq: 1, Thread: 1, Start: 0, End: 3000},
	}
	rows := Blame(spans, map[uint64]bool{0x31: true})
	got := map[string]BlameRow{}
	for _, r := range rows {
		got[r.Mechanism+"/"+r.Initiator] = r
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rows), rows)
	}
	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	pm := got["page_migration/orchestrator"]
	if !approx(pm.AllCycles, 400) || !approx(pm.TailCycles, 400) {
		t.Errorf("orchestrator page_migration cycles: %+v", pm)
	}
	// All service cycles: 1000 + 3000; tail service cycles: 1000.
	if !approx(pm.AllShare, 400.0/4000) || !approx(pm.TailShare, 400.0/1000) {
		t.Errorf("orchestrator page_migration shares: %+v", pm)
	}
	if r := got["page_migration/autonuma"]; !approx(r.AllCycles, 200) {
		t.Errorf("autonuma page_migration cycles: %+v", r)
	}
	if r := got["thread_migration/unknown"]; !approx(r.AllCycles, 300) {
		t.Errorf("unknown thread_migration cycles: %+v", r)
	}
	// Row order is mechanism-major (thread before page per blameMechanisms),
	// initiator-name minor.
	if rows[0].Mechanism != "thread_migration" ||
		rows[1].Initiator != "autonuma" || rows[2].Initiator != "orchestrator" {
		t.Errorf("row order drifted: %+v", rows)
	}
}
