// Package span defines the request-level observability layer above the
// machine's event trace: deterministic hierarchical spans for every
// simulated request of a serving run — session → request → {queue-wait,
// service, per-operator phase} — each carrying its profile-bucket delta,
// counter window and the trace events that fell inside it.
//
// Spans are assembled purely from telemetry the simulation already
// produces (cycle stamps, ThreadBuckets diffs, counter diffs, recorded
// events): nothing in this package touches a machine, so span collection
// is observation-only by construction. IDs derive from the run's xrand
// seed material, so the same run always yields byte-identical spans.
//
// The JSONL serialization is schema "repro/spans/v1", read and written by
// the strict codec every artifact shares (internal/jsonl): unknown fields,
// data after a line's object, wrong schemas and structurally invalid spans
// are rejected, so a write/read round-trip validates the schema. Spans are
// the largest artifact, so the codec writes them with this package's own
// encoder (encode.go), which appends each span without reflection and
// writes exactly the bytes encoding/json would.
package span

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/jsonl"
)

// Schema identifies the span JSONL layout. Bump on any field-meaning
// change; the strict reader rejects other schemas.
const Schema = "repro/spans/v1"

// Span kinds, hierarchical: a session parents its requests; a request
// parents its queue-wait and service spans; a service span parents its
// per-operator phases.
const (
	KindSession   = "session"
	KindRequest   = "request"
	KindQueueWait = "queue_wait"
	KindService   = "service"
	KindPhase     = "phase"
)

// Span is one node of a serving run's span tree, one JSON object per
// JSONL line. Two clock domains appear, by kind: session, request and
// queue_wait spans are stamped on the arrival-overlay clock (the G/G/c
// queueing simulation), service and phase spans on their serving thread's
// cycle account. GStart/GEnd additionally window service spans on the
// machine's global clock, which is what kernel-daemon events are stamped
// with — the join key for blame attribution.
type Span struct {
	Schema string `json:"schema"`
	// Cell labels the run (experiment cell or CLI label); stamped by the
	// harness, empty when standalone.
	Cell string `json:"cell,omitempty"`
	// ID is stable and unique within a run, derived from the run's seed
	// material (never 0). Parent is the enclosing span's ID, 0 for roots.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	// Name is the request kind ("point", "join", ...) or phase name.
	Name string `json:"name"`
	// Seq is the request's index in arrival order, -1 for session spans.
	Seq int `json:"seq"`
	// Session is the owning session id.
	Session uint64 `json:"session"`
	// Thread is the serving thread, -1 where not applicable.
	Thread int `json:"thread"`
	// Start/End are cycle stamps in the kind's clock domain (see above).
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// GStart/GEnd window service spans on the machine's global clock.
	GStart float64 `json:"g_start,omitempty"`
	GEnd   float64 `json:"g_end,omitempty"`
	// Buckets is the span's profile-bucket cycle delta (nonzero buckets
	// only, keyed by machine.Bucket name); nil when profiling was off.
	Buckets map[string]float64 `json:"buckets,omitempty"`
	// Events counts trace events that fell inside the span's window,
	// keyed "kind/initiator" (e.g. "page_migration/orchestrator"); nil
	// when no recorder was attached.
	Events map[string]uint64 `json:"events,omitempty"`
	// Counters is the span's perf-counter window delta (nonzero counters
	// only, keyed by the machine.Counters JSON names).
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// Duration returns End - Start in the span's clock domain.
func (s Span) Duration() float64 { return s.End - s.Start }

// codec reads and writes the repro/spans/v1 layout.
var codec = jsonl.NewFormat(Schema, func(s *Span) *string { return &s.Schema }, checkSpan).
	WithEncoder(newEncoder)

// WriteJSONL writes one JSON object per span, newline-delimited. Missing
// Schema fields are stamped. Output order is input order; spans from a
// fixed seed serialize byte-identically. A NaN or infinite float, which
// JSON cannot carry, is an error.
func WriteJSONL(w io.Writer, spans []Span) error { return codec.Write(w, spans) }

// ReadJSONL parses newline-delimited spans, rejecting unknown fields,
// trailing data, wrong schemas, unknown kinds and spans without an id —
// the strict complement of WriteJSONL.
func ReadJSONL(r io.Reader) ([]Span, error) { return codec.Read(r) }

var validKinds = map[string]bool{
	KindSession: true, KindRequest: true, KindQueueWait: true,
	KindService: true, KindPhase: true,
}

// checkSpan is the structural check ReadJSONL applies to each span.
func checkSpan(s *Span) error {
	if s.ID == 0 {
		return errors.New("span has no id")
	}
	if !validKinds[s.Kind] {
		return fmt.Errorf("unknown span kind %q", s.Kind)
	}
	if s.End < s.Start {
		return fmt.Errorf("span ends (%g) before it starts (%g)", s.End, s.Start)
	}
	return nil
}

// BlameRow attributes one migration-family mechanism's service cycles to
// one initiator, over all requests versus the tail cohort alone.
type BlameRow struct {
	// Mechanism is the profile bucket carrying the cost (page_migration,
	// thread_migration, tlb_shootdown, thp_work, autonuma_scan).
	Mechanism string
	// Initiator is the mechanism's driver ("autonuma", "orchestrator",
	// "os", "khugepaged", or "unknown" when no event identifies one).
	Initiator string
	// AllCycles/TailCycles are the mechanism×initiator's service-window
	// cycles summed over all measured requests / tail requests.
	AllCycles  float64
	TailCycles float64
	// AllShare/TailShare normalize by the cohort's total service cycles.
	AllShare  float64
	TailShare float64
}

// blameKinds maps each migration-family profile bucket to the event kinds
// whose initiator tags split its cycles: page copies and the shootdowns
// they broadcast follow page_migration events, THP work follows splits
// and collapses, and so on.
var blameKinds = map[string][]string{
	"thread_migration": {"thread_migration"},
	"page_migration":   {"page_migration"},
	"tlb_shootdown":    {"page_migration"},
	"thp_work":         {"huge_split", "huge_collapse"},
	"autonuma_scan":    {"autonuma_scan"},
}

// blameMechanisms is the stable row order.
var blameMechanisms = []string{
	"thread_migration", "page_migration", "tlb_shootdown", "thp_work", "autonuma_scan",
}

// Blame joins service spans against their event windows: each span's
// migration-family bucket cycles are split across initiators in
// proportion to the matching events inside the span's window ("unknown"
// when no event identifies a driver), summed over all spans and over the
// tail cohort. tail holds the request-span IDs of the tail cohort;
// service spans join it through their Parent. Rows with no cycles are
// omitted; order is mechanism-major, initiator name minor.
func Blame(spans []Span, tail map[uint64]bool) []BlameRow {
	type key struct{ mech, init string }
	cyc := map[key]*BlameRow{}
	var allTotal, tailTotal float64
	for _, s := range spans {
		if s.Kind != KindService {
			continue
		}
		inTail := tail[s.Parent] || tail[s.ID]
		allTotal += s.Duration()
		if inTail {
			tailTotal += s.Duration()
		}
		for _, mech := range blameMechanisms {
			c := s.Buckets[mech]
			if c == 0 {
				continue
			}
			// Split this span's mechanism cycles by the initiator mix of
			// the matching events in its window.
			counts := map[string]uint64{}
			var total uint64
			for _, kind := range blameKinds[mech] {
				prefix := kind + "/"
				for ek, n := range s.Events {
					if len(ek) > len(prefix) && ek[:len(prefix)] == prefix {
						counts[ek[len(prefix):]] += n
						total += n
					}
				}
			}
			add := func(init string, amount float64) {
				k := key{mech, init}
				r := cyc[k]
				if r == nil {
					r = &BlameRow{Mechanism: mech, Initiator: init}
					cyc[k] = r
				}
				r.AllCycles += amount
				if inTail {
					r.TailCycles += amount
				}
			}
			if total == 0 {
				add("unknown", c)
				continue
			}
			inits := make([]string, 0, len(counts))
			for init := range counts {
				inits = append(inits, init)
			}
			sort.Strings(inits)
			for _, init := range inits {
				add(init, c*float64(counts[init])/float64(total))
			}
		}
	}
	var rows []BlameRow
	for _, mech := range blameMechanisms {
		var inits []string
		for k := range cyc {
			if k.mech == mech {
				inits = append(inits, k.init)
			}
		}
		sort.Strings(inits)
		for _, init := range inits {
			r := cyc[key{mech, init}]
			if allTotal > 0 {
				r.AllShare = r.AllCycles / allTotal
			}
			if tailTotal > 0 {
				r.TailShare = r.TailCycles / tailTotal
			}
			rows = append(rows, *r)
		}
	}
	return rows
}
