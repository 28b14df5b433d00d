package jsonl_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/span"
	"repro/internal/tune"
)

// FuzzRead feeds arbitrary input to the strict reader of every artifact
// schema. No input may panic, and every accepted input, written back and
// read again, must give equal values. Values are compared through their
// encoding, which is the schema's notion of equality: an empty map and
// an omitted one are the same value.
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
	})
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
