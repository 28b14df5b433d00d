package experiments

import (
	"strconv"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
)

// Fig2Threads are the thread counts of the microbenchmark sweep.
var Fig2Threads = []int{1, 2, 4, 8, 16}

// Fig2Result holds the allocator microbenchmark outputs: execution time
// (Figure 2a) and memory consumption overhead, RSS over peak requested
// (Figure 2b), per allocator and thread count on Machine A.
type Fig2Result struct {
	Threads  []int
	Seconds  map[string][]float64
	Overhead map[string][]float64
	Records  []Record
}

// Fig2 runs the multi-threaded allocator microbenchmark: each thread
// performs s.MicrobenchOps operations — allocate-and-write or
// read-and-free — with allocation sizes distributed inversely proportional
// to the size class, as in Section III-A8. The allocator x thread-count
// cells are independent (each builds a fresh Machine A) and dispatch
// through the grid runner's worker pool.
func Fig2(s Scale, o Options) (Fig2Result, error) {
	names := alloc.Names()
	type cell struct {
		secs, over float64
		rec        Record
	}
	cells, err := core.Collect(o.Runner, len(names)*len(Fig2Threads), func(i int) (cell, error) {
		name := names[i/len(Fig2Threads)]
		threads := Fig2Threads[i%len(Fig2Threads)]
		secs, over, rec := microbench(o, name, threads, s.MicrobenchOps)
		return cell{secs, over, rec}, nil
	})
	if err != nil {
		return Fig2Result{}, err
	}
	out := Fig2Result{
		Threads:  Fig2Threads,
		Seconds:  map[string][]float64{},
		Overhead: map[string][]float64{},
	}
	for i, c := range cells {
		name := names[i/len(Fig2Threads)]
		out.Seconds[name] = append(out.Seconds[name], c.secs)
		out.Overhead[name] = append(out.Overhead[name], c.over)
		out.Records = append(out.Records, c.rec)
	}
	return out, nil
}

// microbenchSizes returns the allocation-size menu with weights inversely
// proportional to the class size (smaller allocations more frequent).
func microbenchSizes() (sizes []uint64, cum []float64) {
	for s := uint64(64); s <= 16384; s *= 2 {
		sizes = append(sizes, s)
	}
	total := 0.0
	for _, s := range sizes {
		total += 1.0 / float64(s)
		cum = append(cum, total)
	}
	for i := range cum {
		cum[i] /= total
	}
	return sizes, cum
}

func microbench(o Options, allocName string, threads, ops int) (seconds, overhead float64, rec Record) {
	start := startCell()
	m := o.machineFor("A")
	cfg := baseConfig(threads)
	cfg.Allocator = allocName
	m.Configure(cfg)
	sizes, cum := microbenchSizes()
	maxLive := ops / 8
	if maxLive > 4096 {
		maxLive = 4096
	}
	if maxLive < 64 {
		maxLive = 64
	}
	res := m.Run(threads, func(t *machine.Thread) {
		type obj struct{ addr, size uint64 }
		// FIFO free list as a head-indexed slice with periodic compaction:
		// re-slicing the front (live = live[1:]) strands the backing array,
		// which then grows O(ops) under append instead of O(maxLive).
		var live []obj
		head := 0
		r := t.RNG()
		for i := 0; i < ops; i++ {
			if len(live)-head < maxLive && (len(live) == head || r.Bernoulli(0.6)) {
				u := r.Float64()
				k := 0
				for k < len(cum)-1 && u > cum[k] {
					k++
				}
				size := sizes[k]
				addr := t.Malloc(size)
				t.Write(addr, size)
				live = append(live, obj{addr, size})
			} else {
				o := live[head]
				head++
				if head >= maxLive { // live-count <= maxLive, so len(live) <= 2*maxLive here
					live = append(live[:0], live[head:]...)
					head = 0
				}
				t.Read(o.addr, o.size)
				t.Free(o.addr, o.size)
			}
		}
		for _, o := range live[head:] {
			t.Free(o.addr, o.size)
		}
	})
	st := m.Alloc.Stats()
	overhead = 1
	if st.PeakLiveBytes > 0 {
		overhead = float64(res.RSSBytes) / float64(st.PeakLiveBytes)
		if overhead < 1 {
			overhead = 1 // purged below peak: report as no overhead
		}
	}
	seconds = m.Seconds(res.WallCycles)
	rec = finishCell(start, allocName+"/"+strconv.Itoa(threads)+"T",
		map[string]string{"allocator": allocName, "threads": strconv.Itoa(threads)},
		m, res.WallCycles)
	rec.Extra = map[string]float64{
		"seconds":          seconds,
		"mem_overhead":     overhead,
		"lock_wait_cycles": st.LockWaitCycles,
	}
	return seconds, overhead, rec
}

// RenderTime renders Figure 2a as a table (allocator x threads,
// milliseconds — simulator scale makes paper-scale seconds sub-unit).
func (r Fig2Result) RenderTime() *report.Table {
	t := &report.Table{Title: "Fig 2a: allocator microbenchmark, execution time (ms), Machine A"}
	t.Header = append([]string{"allocator"}, threadHeaders(r.Threads)...)
	for _, name := range alloc.Names() {
		cells := []any{name}
		for _, v := range r.Seconds[name] {
			cells = append(cells, v*1000)
		}
		t.AddRow(cells...)
	}
	return t
}

// RenderOverhead renders Figure 2b (used/requested ratio).
func (r Fig2Result) RenderOverhead() *report.Table {
	t := &report.Table{Title: "Fig 2b: allocator memory overhead (used/requested), Machine A"}
	t.Header = append([]string{"allocator"}, threadHeaders(r.Threads)...)
	for _, name := range alloc.Names() {
		cells := []any{name}
		for _, v := range r.Overhead[name] {
			cells = append(cells, v)
		}
		t.AddRow(cells...)
	}
	return t
}

func threadHeaders(threads []int) []string {
	h := make([]string, len(threads))
	for i, n := range threads {
		h[i] = strconv.Itoa(n) + "T"
	}
	return h
}
