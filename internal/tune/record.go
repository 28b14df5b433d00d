package tune

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/jsonl"
	"repro/internal/machine"
)

// SchemaVersion identifies the campaign record layout. Bump it when a
// field changes meaning; the strict reader rejects other schemas.
//
// One Record is one trial of one campaign, serialized as a single JSON
// object per line:
//
//	schema      string  always "repro/tune/v1"
//	campaign    string  campaign id: strategy/workload/machine
//	strategy    string  "grid", "descent" or "sha"
//	trial       number  schedule index within the campaign, 0-based
//	rung        number  successive-halving rung, 0 elsewhere
//	frac        number  dataset fraction of this trial (1 = full size)
//	workload    string  workload id ("W1", "W3", "WS")
//	machine     string  simulated machine letter ("A", "B", "C")
//	objective   string  what wall_cycles holds when not wall time: WS
//	                    campaigns record "p99_latency" (cycles); omitted
//	                    for the throughput workloads, so their artifacts
//	                    are byte-identical to pre-objective ones
//	key         string  the point's canonical identity (Point.Key)
//	point       object  the knob values: placement, policy, allocator,
//	                    autonuma, thp (strings; booleans as on/off)
//	threads     number  worker thread count of the trial
//	seed        number  the trial's RNG seed
//	size        object  workload sizing after the fraction was applied:
//	                    agg_records, agg_cardinality, join_r
//	wall_cycles number  the trial's measured objective: simulated wall
//	                    time in cycles, or the objective's value when the
//	                    objective field is present
//	lar         number  local access ratio of the measured phase
//	counters    object  the perf-counter profile (see machine.Counters)
//	breakdown   object  cycle attribution, bucket name -> cycles
//
// Unlike repro/bench/v2 there is no host_ns field: every byte of a
// campaign artifact is deterministic for a fixed spec, which is what lets
// the resume test demand bit-identical files.
const SchemaVersion = "repro/tune/v1"

// PointJSON is a Point flattened to strings for the JSONL schema.
type PointJSON struct {
	Placement string `json:"placement"`
	Policy    string `json:"policy"`
	Allocator string `json:"allocator"`
	AutoNUMA  string `json:"autonuma"`
	THP       string `json:"thp"`
}

func pointJSON(p Point) PointJSON {
	return PointJSON{
		Placement: p.Placement.String(),
		Policy:    p.Policy.String(),
		Allocator: p.Allocator,
		AutoNUMA:  onOff(p.AutoNUMA),
		THP:       onOff(p.THP),
	}
}

// SizeJSON is a Size in the JSONL schema's field names.
type SizeJSON struct {
	AggRecords     int `json:"agg_records"`
	AggCardinality int `json:"agg_cardinality"`
	JoinR          int `json:"join_r"`
}

// Record is one completed trial; see SchemaVersion for the serialized
// layout. Every field is deterministic for a fixed campaign spec.
type Record struct {
	Schema     string             `json:"schema"`
	Campaign   string             `json:"campaign"`
	Strategy   string             `json:"strategy"`
	Trial      int                `json:"trial"`
	Rung       int                `json:"rung"`
	Frac       float64            `json:"frac"`
	Workload   string             `json:"workload"`
	Machine    string             `json:"machine"`
	Objective  string             `json:"objective,omitempty"`
	Key        string             `json:"key"`
	Point      PointJSON          `json:"point"`
	Threads    int                `json:"threads"`
	Seed       uint64             `json:"seed"`
	Size       SizeJSON           `json:"size"`
	WallCycles float64            `json:"wall_cycles"`
	LAR        float64            `json:"lar"`
	Counters   machine.Counters   `json:"counters"`
	Breakdown  map[string]float64 `json:"breakdown,omitempty"`
}

// trialKey reconstructs the trial identity a record measured, validating
// the serialized point. This is the resume path: a loaded record
// substitutes for re-running the trial with this key.
func (r Record) trialKey() (TrialKey, error) {
	p, err := parsePoint(r.Point.Placement, r.Point.Policy, r.Point.Allocator,
		r.Point.AutoNUMA, r.Point.THP)
	if err != nil {
		return TrialKey{}, err
	}
	return TrialKey{
		Workload: r.Workload,
		Machine:  r.Machine,
		Point:    p,
		Threads:  r.Threads,
		Seed:     r.Seed,
		Size:     Size{r.Size.AggRecords, r.Size.AggCardinality, r.Size.JoinR},
	}, nil
}

// result extracts the measurement a record carries.
func (r Record) result() TrialResult {
	return TrialResult{
		Cycles:    r.WallCycles,
		LAR:       r.LAR,
		Counters:  r.Counters,
		Breakdown: r.Breakdown,
	}
}

// codec reads and writes the repro/tune/v1 layout.
var codec = jsonl.NewFormat(SchemaVersion, func(r *Record) *string { return &r.Schema }, checkRecord)

// WriteJSONL appends one JSON object per record to w, newline-delimited,
// in input order. Missing Schema fields are stamped with SchemaVersion.
func WriteJSONL(w io.Writer, recs []Record) error { return codec.Write(w, recs) }

// ReadJSONL parses newline-delimited campaign records, rejecting unknown
// fields, trailing data, wrong schemas, and records missing their
// campaign or point identity — the strict complement of WriteJSONL.
func ReadJSONL(r io.Reader) ([]Record, error) { return codec.Read(r) }

// checkRecord is the identity check ReadJSONL applies to each record.
func checkRecord(rec *Record) error {
	if rec.Campaign == "" || rec.Key == "" {
		return errors.New("record missing campaign or point key")
	}
	_, err := rec.trialKey()
	return err
}

// LoadCheckpoint reads a campaign artifact for resumption. Unlike the
// strict reader it tolerates exactly one trailing malformed line with no
// newline terminator — the footprint of a campaign killed mid-write — by
// dropping it. A missing file is an empty checkpoint, not an error.
func LoadCheckpoint(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	recs, err := ReadJSONL(bytes.NewReader(data))
	if err != nil && !bytes.HasSuffix(data, []byte("\n")) {
		// Re-read without the unterminated last line: if that line was
		// the one rejected, the rest loads; corruption anywhere else
		// fails again.
		recs, err = ReadJSONL(bytes.NewReader(data[:bytes.LastIndexByte(data, '\n')+1]))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
