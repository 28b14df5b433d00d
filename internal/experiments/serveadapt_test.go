package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/span"
)

// serveAdaptArtifacts runs the serve-adapt driver and returns its JSONL
// records (host_ns normalized), its rendered tables (p999 delta, blame,
// decision journal) and the span JSONL stream — every byte the
// acceptance criteria require to be reproducible.
func serveAdaptArtifacts(t *testing.T, o Options) (jsonl []byte, tables string, spans []byte) {
	t.Helper()
	resetCaches()
	d, err := Lookup("serve-adapt")
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
	var pb bytes.Buffer
	if err := span.WriteJSONL(&pb, res.Spans); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), sb.String(), pb.Bytes()
}

// TestServeAdaptDeterministicUnderParallelism extends the byte-identity
// guarantee to the orchestrator-under-serving artifacts: records, the
// three rendered tables and the span JSONL must match across serial,
// four workers, and a repeated parallel run.
func TestServeAdaptDeterministicUnderParallelism(t *testing.T) {
	jsonlSerial, tablesSerial, spansSerial := serveAdaptArtifacts(t, workers(1))
	if len(jsonlSerial) == 0 || len(tablesSerial) == 0 || len(spansSerial) == 0 {
		t.Fatal("empty serve-adapt artifacts")
	}

	jsonlPar, tablesPar, spansPar := serveAdaptArtifacts(t, workers(4))
	if !bytes.Equal(jsonlSerial, jsonlPar) {
		t.Error("serve-adapt JSONL differs between serial and parallel-4 runs")
	}
	if tablesSerial != tablesPar {
		t.Error("serve-adapt tables differ between serial and parallel-4 runs")
	}
	if !bytes.Equal(spansSerial, spansPar) {
		t.Error("serve-adapt span JSONL differs between serial and parallel-4 runs")
	}

	jsonlAgain, tablesAgain, spansAgain := serveAdaptArtifacts(t, workers(4))
	if !bytes.Equal(jsonlPar, jsonlAgain) {
		t.Error("serve-adapt JSONL differs between two parallel-4 runs")
	}
	if tablesPar != tablesAgain {
		t.Error("serve-adapt tables differ between two parallel-4 runs")
	}
	if !bytes.Equal(spansPar, spansAgain) {
		t.Error("serve-adapt span JSONL differs between two parallel-4 runs")
	}
}

// TestServeSpansObservationOnly is the tentpole's no-perturbation
// guarantee at the experiment seam: the serve driver must emit
// byte-identical records and tables whether span collection is on or
// off — spans are assembled purely from telemetry reads and never touch
// the simulation.
func TestServeSpansObservationOnly(t *testing.T) {
	jsonlOff, tablesOff := serveArtifacts(t, Options{})
	jsonlOn, tablesOn := serveArtifacts(t, Options{Spans: true})

	if !bytes.Equal(jsonlOff, jsonlOn) {
		t.Error("serve JSONL differs with spans on vs off — span collection perturbed the run")
	}
	if tablesOff != tablesOn {
		t.Error("serve tables differ with spans on vs off — span collection perturbed the run")
	}
}

// TestServeAdaptSpansWellFormed pins the span stream's structure: every
// cell contributes spans, every span validates under the strict reader,
// and every request span has queue-wait and service children whose IDs
// resolve.
func TestServeAdaptSpansWellFormed(t *testing.T) {
	resetCaches()
	r, err := ServeAdapt(Tiny, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 6 {
		t.Fatalf("got %d serve-adapt cells, want 6", len(r.Cells))
	}
	var buf bytes.Buffer
	if err := span.WriteJSONL(&buf, r.Spans); err != nil {
		t.Fatal(err)
	}
	back, err := span.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("span stream rejected by strict reader: %v", err)
	}
	if len(back) != len(r.Spans) {
		t.Fatalf("round-trip: got %d spans, want %d", len(back), len(r.Spans))
	}
	byCell := map[string]int{}
	byID := map[uint64]span.Span{}
	for _, s := range r.Spans {
		byCell[s.Cell]++
		byID[s.ID] = s
	}
	if len(byCell) != 6 {
		t.Fatalf("spans cover %d cells, want 6: %v", len(byCell), byCell)
	}
	var requests, withService int
	for _, s := range r.Spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				t.Fatalf("span %x has dangling parent %x", s.ID, s.Parent)
			}
		}
		if s.Kind == span.KindRequest {
			requests++
		}
		if s.Kind == span.KindService {
			withService++
			if byID[s.Parent].Kind != span.KindRequest {
				t.Fatalf("service span %x parented to %v", s.ID, byID[s.Parent].Kind)
			}
		}
	}
	if requests == 0 || withService != requests {
		t.Fatalf("span tree incomplete: %d requests, %d service spans", requests, withService)
	}
}
