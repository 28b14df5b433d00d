// Package jsonl is the one strict codec behind every JSONL artifact the
// repository writes: experiment records (repro/bench/*), tuning trials
// (repro/tune/v1) and request spans (repro/spans/v1). An artifact holds
// one JSON object per line. The reader rejects a line that is not one
// object of the value's fields, has data after its object, carries a
// schema the format does not accept, or fails the format's check, and
// names that line — so a write/read round trip validates an artifact.
// The writer encodes with encoding/json, or with an encoder of the
// format's own that writes the same bytes without reflection (spans, the
// largest artifact, have one).
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
)

// maxLine bounds one line of an artifact; a longer line fails the read.
const maxLine = 1 << 24

// Format is one artifact layout over values of type T. Build it once with
// NewFormat; Read and Write are its strict reader and its writer.
type Format[T any] struct {
	schema  string
	older   []string
	field   func(*T) *string
	check   func(*T) error
	encoder func() Encoder[T]
}

// An Encoder appends one value's JSON object, without a newline, to dst.
// Write asks for one encoder per call, so an encoder may keep scratch
// state from one value to the next.
type Encoder[T any] func(dst []byte, v *T) ([]byte, error)

// NewFormat describes the layout named schema. field returns a value's
// schema field; check validates a decoded value once its schema is
// accepted. older lists earlier layout names the reader still accepts.
// Values are written with encoding/json unless WithEncoder says otherwise.
func NewFormat[T any](schema string, field func(*T) *string, check func(*T) error, older ...string) Format[T] {
	return Format[T]{schema: schema, older: older, field: field, check: check, encoder: marshal[T]}
}

// WithEncoder returns f writing each value with an encoder from newEncoder
// instead of encoding/json. The encoder must write exactly the bytes
// encoding/json would, so the choice never shows in an artifact.
func (f Format[T]) WithEncoder(newEncoder func() Encoder[T]) Format[T] {
	f.encoder = newEncoder
	return f
}

// marshal is the default encoder: encoding/json's.
func marshal[T any]() Encoder[T] {
	return func(dst []byte, v *T) ([]byte, error) {
		b, err := json.Marshal(v)
		return append(dst, b...), err
	}
}

// Write encodes vs to w, one object per line in input order. A value with
// an empty schema field is written with the format's schema; vs itself is
// not modified.
func (f Format[T]) Write(w io.Writer, vs []T) error {
	bw := bufio.NewWriter(w)
	enc := f.encoder()
	var v T         // one scratch copy for stamping, reused for every value
	var line []byte // one line buffer, reused for every value
	for i := range vs {
		v = vs[i]
		if s := f.field(&v); *s == "" {
			*s = f.schema
		}
		var err error
		if line, err = enc(line[:0], &v); err != nil {
			return err
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes every non-blank line of r. It stops at the first line it
// rejects and reports that line's 1-based number.
func (f Format[T]) Read(r io.Reader) ([]T, error) {
	var vs []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), maxLine)
	for line := 1; sc.Scan(); line++ {
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var v T
		if err := f.decode(b, &v); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		vs = append(vs, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return vs, nil
}

// decode parses one trimmed, non-empty line into v.
func (f Format[T]) decode(b []byte, v *T) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimSpace(b[dec.InputOffset():])) > 0 {
		return errors.New("data after the object")
	}
	if s := *f.field(v); s != f.schema && !slices.Contains(f.older, s) {
		return fmt.Errorf("schema %q, want %q", s, f.schema)
	}
	return f.check(v)
}
