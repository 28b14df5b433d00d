package jsonl_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"repro/internal/experiments"
	"repro/internal/span"
	"repro/internal/tune"
)

// FuzzRead feeds arbitrary input to the strict reader of every artifact
// schema. No input may panic, and every accepted input, written back and
// read again, must give equal values. Values are compared through their
// encoding, which is the schema's notion of equality: an empty map and
// an omitted one are the same value. Accepted spans are also written by
// encoding/json, the reference the span writer's own encoder must match
// byte for byte.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := experiments.WriteJSONL(&seed, []experiments.Record{{
		Experiment: "fig2", Cell: "c1", Labels: map[string]string{"threads": "1"},
		WallCycles: 100, Extra: map[string]float64{"lar": 0.5},
	}}); err != nil {
		f.Fatal(err)
	}
	if err := tune.WriteJSONL(&seed, []tune.Record{{Campaign: "sha/W1/A", Key: "k", Point: tune.PointJSON{
		Placement: "Sparse", Policy: "First Touch", Allocator: "ptmalloc", AutoNUMA: "off", THP: "off",
	}}}); err != nil {
		f.Fatal(err)
	}
	if err := span.WriteJSONL(&seed, []span.Span{{
		ID: 1, Kind: span.KindService, Name: "point", Start: 1, End: 2,
		Buckets: map[string]float64{"compute": 1},
	}, {
		Cell: "a<b>&c\u2028\x01\x7f", ID: math.MaxUint64, Parent: 7, Kind: span.KindPhase,
		Name: "p\"\\\t\u2029\u00e9", Seq: -1, Thread: -1, Start: -1e-7, End: 1e21,
		GStart: 5e-324, GEnd: math.MaxFloat64,
		Buckets:  map[string]float64{"z": 0.1, "a": math.Copysign(0, -1), "m<": 123456789.5},
		Events:   map[string]uint64{"page_migration/os": 3, "huge_split/\u2028": 1},
		Counters: map[string]uint64{"tlb_misses": math.MaxUint64, "cache_misses": 2},
	}}); err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(seed.Bytes(), []byte("\n")) {
		f.Add(line)
		f.Add(append(append([]byte{}, line...), line...))
		obj := bytes.TrimSuffix(line, []byte("\n"))
		for _, tail := range []string{" garbage", "]", `{"schema":"bogus"}`} {
			f.Add(append(append([]byte{}, obj...), tail...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, experiments.ReadJSONL, experiments.WriteJSONL)
		roundTrip(t, data, tune.ReadJSONL, tune.WriteJSONL)
		roundTrip(t, data, span.ReadJSONL, span.WriteJSONL)
		spansMatchEncodingJSON(t, data)
	})
}

// spansMatchEncodingJSON checks that span.WriteJSONL writes the spans of
// every accepted input exactly as a json.Encoder does, schema stamping
// included.
func spansMatchEncodingJSON(t *testing.T, data []byte) {
	spans, err := span.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		return
	}
	var got, want bytes.Buffer
	if err := span.WriteJSONL(&got, spans); err != nil {
		t.Fatalf("writing accepted spans: %v", err)
	}
	enc := json.NewEncoder(&want)
	for _, s := range spans {
		if s.Schema == "" {
			s.Schema = span.Schema
		}
		if err := enc.Encode(&s); err != nil {
			t.Fatalf("encoding/json rejects accepted spans: %v", err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("span writer differs from encoding/json:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

// roundTrip checks one schema's reader and writer on data.
func roundTrip[T any](t *testing.T, data []byte, read func(io.Reader) ([]T, error), write func(io.Writer, []T) error) {
	vs, err := read(bytes.NewReader(data))
	if err != nil {
		return
	}
	var first, second bytes.Buffer
	if err := write(&first, vs); err != nil {
		t.Fatalf("writing accepted values: %v", err)
	}
	back, err := read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("written-back values rejected: %v\n%s", err, first.Bytes())
	}
	if err := write(&second, back); err != nil {
		t.Fatalf("writing re-read values: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("values changed through a write/read cycle:\n%s\n%s", first.Bytes(), second.Bytes())
	}
}
