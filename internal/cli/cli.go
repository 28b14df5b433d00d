// Package cli holds the flag handling and output plumbing shared by the
// commands (numabench, numatune, tpchbench, advisor): scale names, the
// structured JSONL sink and the one -validate dispatcher, Chrome trace
// collection, folded-stack export, and host pprof profiles. Keeping it
// in one place guarantees the CLIs agree on flag names, help text and
// file formats.
package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
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

// scales maps each -scale name to its experiment scale.
var scales = map[string]experiments.Scale{
	"tiny":    experiments.Tiny,
	"small":   experiments.Small,
	"cal":     experiments.Cal,
	"default": experiments.Default,
}

// ParseScale resolves a -scale flag value.
func ParseScale(name string) (experiments.Scale, error) {
	s, ok := scales[name]
	if !ok {
		return experiments.Scale{}, fmt.Errorf("unknown scale %q (tiny, small, cal, default)", name)
	}
	return s, nil
}

// Flags are the output flags the CLIs share. Register installs them; the
// zero value means "off" for every feature.
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

// validators are the strict readers -validate dispatches to, keyed by
// schema family. A file whose first line names no known family goes to
// the last one, the experiment-record reader, whose error names the
// schema it wants.
var validators = []struct {
	family, noun, schema string
	count                func(io.Reader) (int, error)
}{
	{"repro/spans/", "spans", span.Schema, count(span.ReadJSONL)},
	{"repro/tune/", "trials", tune.SchemaVersion, count(tune.ReadJSONL)},
	{"repro/bench/", "records", experiments.SchemaVersion, count(experiments.ReadJSONL)},
}

// count adapts a strict reader to report how many values it accepted.
func count[T any](read func(io.Reader) ([]T, error)) func(io.Reader) (int, error) {
	return func(r io.Reader) (int, error) {
		vs, err := read(r)
		return len(vs), err
	}
}

// HandleValidate runs the -validate action when requested: the schema on
// the file's first line picks the strict reader from validators, which
// checks the whole file, and a one-line summary goes to w. It reports
// whether the flag was set (the command should exit afterwards).
func (f *Flags) HandleValidate(w io.Writer) (bool, error) {
	if f.Validate == "" {
		return false, nil
	}
	data, err := os.ReadFile(f.Validate)
	if err != nil {
		return true, err
	}
	first, _, _ := bytes.Cut(bytes.TrimSpace(data), []byte("\n"))
	var head struct {
		Schema string `json:"schema"`
	}
	_ = json.Unmarshal(first, &head) // the strict reader reports a malformed line
	v := validators[len(validators)-1]
	for _, c := range validators {
		if strings.HasPrefix(head.Schema, c.family) {
			v = c
			break
		}
	}
	n, err := v.count(bytes.NewReader(data))
	if err != nil {
		return true, fmt.Errorf("%s: %w", f.Validate, err)
	}
	fmt.Fprintf(w, "%s: %d %s, schema %s\n", f.Validate, n, v.noun, v.schema)
	return true, nil
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
		if memPath == "" {
			return nil
		}
		runtime.GC() // materialize up-to-date heap statistics
		return writeFile(memPath, os.O_TRUNC, func(w io.Writer) error { return pprof.Lookup("heap").WriteTo(w, 0) })
	}, nil
}

// writeFile opens path for writing with the extra open flag (O_APPEND or
// O_TRUNC), creating it if needed, hands it to write, and closes it.
func writeFile(path string, flag int, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|flag, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// AppendJSONL appends records to path, creating the file if needed.
func AppendJSONL(path string, recs []experiments.Record) error {
	return writeFile(path, os.O_APPEND, func(w io.Writer) error { return experiments.WriteJSONL(w, recs) })
}

// WriteSpans appends request spans to path as repro/spans/v1 JSONL,
// creating the file if needed — the span counterpart of AppendJSONL.
func WriteSpans(path string, spans []span.Span) error {
	return writeFile(path, os.O_APPEND, func(w io.Writer) error { return span.WriteJSONL(w, spans) })
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

// AttachTrace wires an event recorder and periodic counter snapshots to a
// machine the caller built directly (the tpchbench path; experiment grid
// cells get theirs from experiments.Options.Trace instead), at the
// experiments' snapshot cadence.
func AttachTrace(m *machine.Machine) {
	m.Observe(machine.ObserveOptions{Trace: true, SnapEvery: experiments.SnapEvery})
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
// records (populated under experiments.Options.Trace), named id/cell. Spans
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
// result's records (populated under experiments.Options.Profile), named
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
	return writeFile(path, os.O_TRUNC, func(w io.Writer) error { return report.ChromeTrace(w, procs...) })
}

// WriteFolded writes the collected profiles in folded-stack format, one
// frame line per (process, thread, component) — load directly into
// speedscope or flamegraph.pl.
func WriteFolded(path string, profs []report.FoldedProfile) error {
	return writeFile(path, os.O_TRUNC, func(w io.Writer) error { return report.FoldedStacks(w, profs...) })
}
