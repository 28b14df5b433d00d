package span

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/jsonl"
)

// encoder appends spans as JSON without reflection, byte for byte what
// encoding/json writes for a Span: the fields in Span's order under its
// tags' omitempty rules, map keys sorted, numbers formatted as
// encoding/json formats them, and strings escaped as its default
// HTML-escaping encoder escapes them. keys is the one scratch slice that
// every map's keys are sorted in; err is the first float with no JSON
// form (NaN, ±Inf) in the span being encoded.
type encoder struct {
	keys []string
	err  error
}

// newEncoder gives each WriteJSONL call an encoder with its own scratch.
func newEncoder() jsonl.Encoder[Span] { return new(encoder).span }

func (e *encoder) span(b []byte, s *Span) ([]byte, error) {
	e.err = nil
	b = appendString(append(b, `{"schema":`...), s.Schema)
	if s.Cell != "" {
		b = appendString(append(b, `,"cell":`...), s.Cell)
	}
	b = strconv.AppendUint(append(b, `,"id":`...), s.ID, 10)
	if s.Parent != 0 {
		b = strconv.AppendUint(append(b, `,"parent":`...), s.Parent, 10)
	}
	b = appendString(append(b, `,"kind":`...), s.Kind)
	b = appendString(append(b, `,"name":`...), s.Name)
	b = strconv.AppendInt(append(b, `,"seq":`...), int64(s.Seq), 10)
	b = strconv.AppendUint(append(b, `,"session":`...), s.Session, 10)
	b = strconv.AppendInt(append(b, `,"thread":`...), int64(s.Thread), 10)
	b = e.float(append(b, `,"start":`...), s.Start)
	b = e.float(append(b, `,"end":`...), s.End)
	if s.GStart != 0 {
		b = e.float(append(b, `,"g_start":`...), s.GStart)
	}
	if s.GEnd != 0 {
		b = e.float(append(b, `,"g_end":`...), s.GEnd)
	}
	if len(s.Buckets) > 0 {
		b = append(b, `,"buckets":`...)
		e.keys = sortedKeys(e.keys, s.Buckets)
		for i, k := range e.keys {
			b = e.float(appendKey(b, i, k), s.Buckets[k])
		}
		b = append(b, '}')
	}
	b = e.counts(b, `,"events":`, s.Events)
	b = e.counts(b, `,"counters":`, s.Counters)
	return append(b, '}'), e.err
}

// counts appends a map[string]uint64 field under its key, or nothing when
// the map is empty.
func (e *encoder) counts(b []byte, field string, m map[string]uint64) []byte {
	if len(m) == 0 {
		return b
	}
	b = append(b, field...)
	e.keys = sortedKeys(e.keys, m)
	for i, k := range e.keys {
		b = strconv.AppendUint(appendKey(b, i, k), m[k], 10)
	}
	return append(b, '}')
}

// sortedKeys returns m's keys, sorted, in keys' storage.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendKey opens the map (i == 0) or separates its entries, then writes
// key k and its colon.
func appendKey(b []byte, i int, k string) []byte {
	if i == 0 {
		b = append(b, '{')
	} else {
		b = append(b, ',')
	}
	return append(appendString(b, k), ':')
}

// float formats x as encoding/json does: the shortest decimal that reads
// back as x, in exponent form only when |x| < 1e-6 or |x| >= 1e21, with a
// one-digit negative exponent not padded to two.
func (e *encoder) float(b []byte, x float64) []byte {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("span: unsupported value: %v", x)
		}
		return b
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hex = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json's HTML-escaping encoder
// copies into a string as they are: every byte from ' ' up (DEL too),
// except '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendString appends s as a JSON string the way encoding/json's
// HTML-escaping encoder does: HTML-safe printable ASCII is copied; '"'
// and '\\' and the control bytes with a short form get it; other control
// bytes and '<', '>', '&' become \u00XX; each byte of invalid UTF-8
// becomes \ufffd; U+2028 and U+2029 are escaped; other runes are copied.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
