package main

import (
	"sort"
	"strings"
)

// timings maps each per-layer timing metric to the spans it is read
// from. Each is reported as .p50, .tail and .n (see timingMetrics).
var timings = []struct {
	metric string
	spans  []string
}{
	{"datagen.gen_ms", []string{"datagen.Generate", "datagen.Join", "datagen.CachedGenerate", "datagen.CachedJoin", "tpch.Generate", "tpch.GenerateCached"}},
	{"machine.new_ms", []string{"machine.New"}},
	{"query.aggregate_ms", []string{"query.Aggregate"}},
	{"query.hashjoin_ms", []string{"query.HashJoin"}},
	{"query.indexjoin_ms", []string{"query.IndexJoin"}},
	{"numaop.mpsm_ms", []string{"numaop.MPSMJoin"}},
	{"tpch.harness_ms", []string{"tpch.NewHarnessStorage"}},
	{"tpch.query_ms", []string{"tpch.Measure"}},
	{"tune.trial_ms", nil}, // a per-wave mean, sampled in the tuning sink
	{"serve.calibrate_ms", []string{"serve.CalibratedMeanService"}},
	{"serve.run_ms", []string{"serve.Run"}},
	{"span.blame_ms", []string{"span.Blame"}},
	{"span.jsonl_ms", []string{"span.WriteJSONL"}},
}

// exactCounts are the per-pass counts that repeat bit for bit for a fixed
// seed and sizes; a workload that never touches one reports 0.
var exactCounts = []struct{ name, unit string }{
	{"cache.llc_lookups", "count"},
	{"cache.llc_misses", "count"},
	{"cache.tlb_misses", "count"},
	{"machine.thread_migrations", "count"},
	{"machine.sim_gcycles", "Gcycles"},
	{"vmm.minor_faults", "count"},
	{"vmm.page_migrations", "count"},
	{"vmm.huge_promotions", "count"},
	{"vmm.huge_splits", "count"},
	{"alloc.mallocs", "count"},
	{"alloc.slow_paths", "count"},
	{"alloc.purges", "count"},
	{"tune.trials", "count"},
	{"span.count", "count"},
	{"span.jsonl_mb", "MiB"},
	{"trace.events", "count"},
	{"orchestrator.ticks", "count"},
	{"orchestrator.thread_moves", "count"},
	{"orchestrator.page_moves", "count"},
}

// simSpans are the spans that run the simulator's access path; their host
// time divided by the LLC lookups they made is the access path's cost.
var simSpans = map[string]bool{
	"query.Aggregate": true, "query.HashJoin": true, "query.IndexJoin": true,
	"numaop.MPSMJoin": true, "tune.Run": true, "tpch.NewHarnessStorage": true,
	"tpch.Measure": true, "serve.Run": true,
}

// layerMetrics are the traced run's metrics; BENCHMARK.json lists them
// under per_layer.
func (r *runResult) layerMetrics() []metric {
	tr := r.tr
	var out []metric
	byName := map[string][]float64{}
	var newAllocMiB []float64
	simMS := map[int]float64{}
	queryMallocs := map[int]float64{}
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s.ms())
		if s.Name == "machine.New" {
			newAllocMiB = append(newAllocMiB, float64(s.AllocBytes)/(1<<20))
		}
		if s.Pass < 0 {
			continue
		}
		if simSpans[s.Name] {
			simMS[s.Pass] += s.ms()
		}
		if strings.HasPrefix(s.Name, "query.") || strings.HasPrefix(s.Name, "numaop.") {
			queryMallocs[s.Pass] += float64(s.Mallocs)
		}
	}
	for _, t := range timings {
		samples := append([]float64(nil), tr.samples[t.metric]...)
		for _, n := range t.spans {
			samples = append(samples, byName[n]...)
		}
		out = append(out, timingMetrics(t.metric, "ms", samples)...)
	}
	out = append(out, metric{"machine.new_alloc_mb", median(newAllocMiB), "MiB"})

	ex := r.exact
	for _, c := range exactCounts {
		out = append(out, metric{c.name, ex[c.name], c.unit})
	}

	var nsPerLookup, allocMiB, mallocs, gcs, gcFrac, qMallocs []float64
	for _, p := range tr.passes {
		if lookups := ex["cache.llc_lookups"]; lookups > 0 {
			nsPerLookup = append(nsPerLookup, simMS[p.pass]*1e6/lookups)
		}
		allocMiB = append(allocMiB, float64(p.alloc)/(1<<20))
		mallocs = append(mallocs, float64(p.mallocs))
		gcs = append(gcs, float64(p.gcs))
		if p.cpuSec > 0 {
			gcFrac = append(gcFrac, p.gcCPUSec/p.cpuSec)
		}
		qMallocs = append(qMallocs, queryMallocs[p.pass])
	}
	out = append(out,
		metric{"machine.host_ns_per_llc_lookup", median(nsPerLookup), "ns"},
		metric{"query.host_mallocs", median(qMallocs), "count"},
		metric{"serve.requests_per_s", median(tr.samples["serve.requests_per_s"]), "1/s"},
		metric{"orchestrator.cell_ratio", median(tr.samples["orchestrator.cell_ratio"]), "ratio"},
		metric{"runtime.host_alloc_mb", median(allocMiB), "MiB"},
		metric{"runtime.host_mallocs", median(mallocs), "count"},
		metric{"runtime.gc_cycles", median(gcs), "count"},
		metric{"runtime.gc_cpu_frac", median(gcFrac), "fraction"},
		metric{"bench.span_coverage", tr.coverage(), "fraction"},
		metric{"bench.trace_overhead_s", median(r.tracedWalls) - median(r.walls), "s"},
	)
	return out
}

// timingMetrics reports a timing as its median, its tail and its sample
// count. The tail is the highest percentile with at least ten samples
// beyond it, i.e. the eleventh-largest sample; with ten samples or fewer
// it is the largest.
func timingMetrics(name, unit string, samples []float64) []metric {
	return []metric{
		{name + ".p50", median(samples), unit},
		{name + ".tail", tail(samples), unit},
		{name + ".n", float64(len(samples)), "count"},
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the eleventh-largest of xs, or the largest when there are
// ten or fewer (0 for none).
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i]
}
