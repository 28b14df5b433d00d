package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// tracer records the traced run's spans: one around every public call the
// benchmark makes into a layer, with its parent, cell and pass, plus the
// Go heap allocation made inside it. A nil *tracer is the untraced mode:
// every method is a no-op and span just calls its function.
type tracer struct {
	origin  time.Time
	spans   []hostSpan
	open    []int // indexes of the spans enclosing the current call
	pass    int   // -1 during set-up
	cell    string
	samples map[string][]float64 // per-layer samples not read off one span
	passes  []passStat
	begin   hostStat
}

// hostSpan is one recorded layer call. Times are milliseconds since the run
// started; Parent is -1 for a root.
type hostSpan struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"`
	Name       string  `json:"name"`
	Pass       int     `json:"pass"`
	Cell       string  `json:"cell"`
	StartMS    float64 `json:"start_ms"`
	EndMS      float64 `json:"end_ms"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

func (s hostSpan) ms() float64 { return s.EndMS - s.StartMS }

// layer is the span's package: the name up to the first dot.
func (s hostSpan) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// passStat is one traced pass's host wall time and Go runtime deltas.
type passStat struct {
	pass     int
	wall     float64 // seconds
	mallocs  uint64
	alloc    uint64 // bytes
	gcs      uint32
	gcCPUSec float64
	cpuSec   float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), pass: -1, samples: map[string][]float64{}}
}

func (tr *tracer) now() float64 {
	return float64(time.Since(tr.origin).Nanoseconds()) / 1e6
}

func (tr *tracer) setPass(p int) {
	if tr != nil {
		tr.pass = p
	}
}

func (tr *tracer) setCell(c string) {
	if tr != nil {
		tr.cell = c
	}
}

// span runs fn inside a span called name and returns the span's host
// milliseconds (0 when untraced).
func (tr *tracer) span(name string, fn func()) float64 {
	if tr == nil {
		fn()
		return 0
	}
	id := tr.openSpan(name, tr.now())
	defer tr.closeSpan(id)
	fn()
	return tr.now() - tr.spans[id].StartMS
}

// since records a span called name from startMS (a tr.now() reading) to
// now, for work the benchmark only sees the end of, such as a tuning
// wave delivered through a callback. It returns the span's milliseconds;
// the span carries no heap deltas, which would need a reading at startMS.
func (tr *tracer) since(name string, startMS float64) float64 {
	if tr == nil {
		return 0
	}
	id := tr.openSpan(name, startMS)
	tr.closeSpan(id)
	tr.spans[id].Mallocs, tr.spans[id].AllocBytes = 0, 0
	return tr.spans[id].ms()
}

func (tr *tracer) openSpan(name string, startMS float64) int {
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	id := len(tr.spans)
	tr.spans = append(tr.spans, hostSpan{
		ID: id, Parent: parent, Name: name, Pass: tr.pass, Cell: tr.cell,
		StartMS: startMS, Mallocs: ms.Mallocs, AllocBytes: ms.TotalAlloc,
	})
	tr.open = append(tr.open, id)
	return id
}

func (tr *tracer) closeSpan(id int) {
	end := tr.now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &tr.spans[id]
	s.EndMS = end
	s.Mallocs = ms.Mallocs - s.Mallocs
	s.AllocBytes = ms.TotalAlloc - s.AllocBytes
	tr.open = tr.open[:len(tr.open)-1]
}

// sample records one value of a per-layer metric that no single span
// carries (a rate, a per-trial mean).
func (tr *tracer) sample(name string, v float64) {
	if tr != nil {
		tr.samples[name] = append(tr.samples[name], v)
	}
}

// hostStat is a reading of the Go runtime's cumulative counters.
type hostStat struct {
	mallocs, alloc uint64
	gcs            uint32
	gcCPU, cpu     float64
}

func readHost() hostStat {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	h := hostStat{mallocs: ms.Mallocs, alloc: ms.TotalAlloc, gcs: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU, h.cpu = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return h
}

func (tr *tracer) passBegin() {
	if tr != nil {
		tr.begin = readHost()
	}
}

func (tr *tracer) passEnd(wall float64) {
	if tr == nil {
		return
	}
	end := readHost()
	tr.passes = append(tr.passes, passStat{
		pass: tr.pass, wall: wall,
		mallocs:  end.mallocs - tr.begin.mallocs,
		alloc:    end.alloc - tr.begin.alloc,
		gcs:      end.gcs - tr.begin.gcs,
		gcCPUSec: end.gcCPU - tr.begin.gcCPU,
		cpuSec:   end.cpu - tr.begin.cpu,
	})
}

// coverage is the smallest share of a traced pass's wall time that its
// root spans cover.
func (tr *tracer) coverage() float64 {
	covered := map[int]float64{}
	for _, s := range tr.spans {
		if s.Parent < 0 && s.Pass >= 0 {
			covered[s.Pass] += s.ms()
		}
	}
	low := 0.0
	for i, p := range tr.passes {
		c := covered[p.pass] / (p.wall * 1e3)
		if i == 0 || c < low {
			low = c
		}
	}
	return low
}

// selfTime returns, per layer, the host milliseconds its spans spent
// outside their child spans, over all traced passes and set-up.
func (tr *tracer) selfTime() map[string]float64 {
	child := make([]float64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.ms()
		}
	}
	self := map[string]float64{}
	for i, s := range tr.spans {
		self[s.layer()] += s.ms() - child[i]
	}
	return self
}

// writeSelfTime prints the per-layer self-time table, largest first.
func (tr *tracer) writeSelfTime(w io.Writer) {
	self := tr.selfTime()
	layers := make([]string, 0, len(self))
	total := 0.0
	for l, ms := range self {
		layers = append(layers, l)
		total += ms
	}
	sort.Slice(layers, func(i, j int) bool {
		if self[layers[i]] != self[layers[j]] {
			return self[layers[i]] > self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	fmt.Fprintf(w, "%-14s %12s %7s\n", "layer", "self_ms", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "%-14s %12.1f %6.1f%%\n", l, self[l], 100*self[l]/total)
	}
}

// writeTrace writes the traced run's spans (JSONL) and self-time table
// under dir.
func (r *runResult) writeTrace(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := writeFile(base+".spans.jsonl", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range r.tr.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return writeFile(base+".selftime.txt", func(w io.Writer) error {
		r.tr.writeSelfTime(w)
		return nil
	})
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
