// Package cli holds the flag handling and output plumbing shared by the
// benchmark commands (numabench, tpchbench): the structured JSONL sink
// and its validator, Chrome trace collection, folded-stack export, and
// host pprof profiles. Keeping it in one place guarantees the CLIs agree
// on flag names, help text and file formats.
package cli

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/span"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/tune"
)

// snapshotEvery is the counter-snapshot cadence for traced machines, in
// simulated cycles — the same cadence internal/experiments uses for its
// traced grid cells, so counter tracks line up across the two CLIs.
const snapshotEvery = 1e5

// Flags are the output flags both benchmark CLIs share. Register installs
// them; the zero value means "off" for every feature.
type Flags struct {
	JSON       string // -json: JSONL append path
	Trace      string // -trace: Chrome trace-event output path
	Spans      string // -spans: request-span JSONL output path
	Validate   string // -validate: JSONL file to check, then exit
	CPUProfile string // -cpuprofile: host pprof CPU profile path
	MemProfile string // -memprofile: host pprof heap profile path
}

// Register installs the shared flags on fs with identical names and help
// text across commands.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "record simulator event traces and write a Chrome trace-event file")
	fs.StringVar(&f.Spans, "spans", "", "collect request spans and write them as repro/spans/v1 JSONL to this file")
	f.RegisterNoTrace(fs)
}

// RegisterNoTrace installs the shared flags except -trace, for commands
// whose artifacts carry no event stream (numatune: campaign records are
// fully deterministic, and a trace would change nothing but file size).
func (f *Flags) RegisterNoTrace(fs *flag.FlagSet) {
	fs.StringVar(&f.JSON, "json", "", "append one JSONL record per cell to this file")
	fs.StringVar(&f.Validate, "validate", "", "validate a JSONL results file against the schema and exit")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a host pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a host pprof heap profile to this file")
}

// HandleValidate runs the -validate action when requested: it sniffs the
// file's schema from its first line and checks it against the matching
// strict reader — experiment records (repro/bench/*), request spans
// (repro/spans/v1) or tune campaigns (repro/tune/v1) — then prints a
// one-line summary. It reports whether the flag was set (the command
// should exit afterwards).
func (f *Flags) HandleValidate(w *os.File) (bool, error) {
	if f.Validate == "" {
		return false, nil
	}
	schema, err := sniffSchema(f.Validate)
	if err != nil {
		return true, err
	}
	switch {
	case strings.HasPrefix(schema, "repro/spans/"):
		n, err := ValidateSpansJSONL(f.Validate)
		if err != nil {
			return true, err
		}
		fmt.Fprintf(w, "%s: %d spans, schema %s\n", f.Validate, n, span.Schema)
	case strings.HasPrefix(schema, "repro/tune/"):
		n, err := ValidateTuneJSONL(f.Validate)
		if err != nil {
			return true, err
		}
		fmt.Fprintf(w, "%s: %d trials, schema %s\n", f.Validate, n, tune.SchemaVersion)
	default:
		n, err := ValidateJSONL(f.Validate)
		if err != nil {
			return true, err
		}
		fmt.Fprintf(w, "%s: %d records, schema %s\n", f.Validate, n, experiments.SchemaVersion)
	}
	return true, nil
}

// sniffSchema reads the schema field off a JSONL file's first non-empty
// line, so -validate can dispatch to the right strict reader. An empty
// or schemaless first line returns "", which falls through to the
// experiment-record reader (whose error message names the schema).
func sniffSchema(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Schema string `json:"schema"`
		}
		// Ignore decode errors: the strict reader will report them better.
		_ = json.Unmarshal(line, &probe)
		return probe.Schema, nil
	}
	return "", sc.Err()
}

// StartHostProfiles starts the CPU profile when -cpuprofile is set and
// returns a stop function that finishes it and writes the heap profile
// when -memprofile is set. Call stop exactly once, after the workload.
func (f *Flags) StartHostProfiles() (stop func() error, err error) {
	var cpuFile *os.File
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	memPath := f.MemProfile
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// AppendJSONL appends records to path, creating the file if needed.
func AppendJSONL(path string, recs []experiments.Record) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := experiments.WriteJSONL(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateSpansJSONL checks a span artifact against the repro/spans/v1
// strict reader and returns the span count.
func ValidateSpansJSONL(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	spans, err := span.ReadJSONL(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return len(spans), nil
}

// WriteSpans appends request spans to path as repro/spans/v1 JSONL,
// creating the file if needed — the span counterpart of AppendJSONL.
func WriteSpans(path string, spans []span.Span) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := span.WriteJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateTuneJSONL checks a campaign artifact against the repro/tune/v1
// strict reader and returns the record count.
func ValidateTuneJSONL(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	recs, err := tune.ReadJSONL(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return len(recs), nil
}

// CacheSummary formats the dataset and TPC-H memo-cache counters in one
// line, so progress output shows long runs reuse generated data instead
// of rebuilding it per trial.
func CacheSummary() string {
	dh, dm := datagen.CacheStats()
	th, tm := tpch.GenCacheStats()
	return fmt.Sprintf("cache: datasets %d hits / %d builds, tpch %d hits / %d builds",
		dh, dm, th, tm)
}

// ValidateJSONL checks path against the strict schema reader and returns
// the record count.
func ValidateJSONL(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	recs, err := experiments.ReadJSONL(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return len(recs), nil
}

// AttachTrace wires an event recorder and periodic counter snapshots to a
// machine the caller built directly (the tpchbench path; experiment grid
// cells get theirs from SetCellTracing instead).
func AttachTrace(m *machine.Machine) {
	m.Observe(machine.ObserveOptions{Trace: true, SnapEvery: snapshotEvery})
}

// TraceOf reads the recorder and snapshots off a machine AttachTrace was
// called on, as one named Chrome trace process. ok is false when the
// machine has no recorder or recorded nothing.
func TraceOf(name string, m *machine.Machine) (tp report.TraceProcess, ok bool) {
	rec, has := m.Trace().(*trace.Recorder)
	if !has || len(rec.Events) == 0 {
		return report.TraceProcess{}, false
	}
	return report.TraceProcess{
		Name:      name,
		FreqGHz:   m.Spec.FreqGHz,
		Events:    rec.Events,
		Snapshots: m.Snapshots(),
	}, true
}

// RecordTraces collects the trace processes of an experiment result's
// records (populated when SetCellTracing was on), named id/cell. Spans
// collected for a cell ride on its process, so the Chrome trace shows
// request lifelines and flow arrows over the machine tracks.
func RecordTraces(res *experiments.Result) []report.TraceProcess {
	var procs []report.TraceProcess
	for i := range res.Records {
		rec := &res.Records[i]
		ev := rec.TraceEvents()
		if len(ev) == 0 {
			continue
		}
		var spans []span.Span
		for _, s := range res.Spans {
			if s.Cell == rec.Cell {
				spans = append(spans, s)
			}
		}
		procs = append(procs, report.TraceProcess{
			Name:      res.Id + "/" + rec.Cell,
			FreqGHz:   rec.FreqGHz,
			Events:    ev,
			Snapshots: rec.Snapshots,
			Spans:     spans,
		})
	}
	return procs
}

// RecordFolded collects the folded-stack profiles of an experiment
// result's records (populated when SetCellProfiling was on), named
// id/cell — the exact layout the determinism tests pin down.
func RecordFolded(res *experiments.Result) []report.FoldedProfile {
	var profs []report.FoldedProfile
	for i := range res.Records {
		rec := &res.Records[i]
		if rec.Profile == nil {
			continue
		}
		profs = append(profs, report.FoldedProfile{
			Name:    res.Id + "/" + rec.Cell,
			Profile: rec.Profile,
		})
	}
	return profs
}

// WriteChromeTrace writes the collected processes as one Chrome
// trace-event file loadable in Perfetto or speedscope.
func WriteChromeTrace(path string, procs []report.TraceProcess) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.ChromeTrace(f, procs...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFolded writes the collected profiles in folded-stack format, one
// frame line per (process, thread, component) — load directly into
// speedscope or flamegraph.pl.
func WriteFolded(path string, profs []report.FoldedProfile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.FoldedStacks(f, profs...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
