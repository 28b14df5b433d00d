package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/span"
	"repro/internal/trace"
	"repro/internal/tune"
)

// serveWorkers is the serving thread count of every cell, matching the
// figure drivers' 16-thread measurement baseline (and the c of the G/G/c
// queueing overlay).
const serveWorkers = 16

// ServeOptions are the numabench-facing overrides for the serve
// experiment; zero values defer to the Scale and the serve defaults.
type ServeOptions struct {
	// Requests overrides Scale.ServeRequests (the open-loop stream length).
	Requests int
	// Util is the offered utilization the arrival rate targets (0 = 0.7).
	Util float64
}

// serveArrivals are the two arrival processes each configuration serves.
var serveArrivals = []string{serve.ArrivalPoisson, serve.ArrivalBursty}

// ServeCell is one serving grid cell: a machine configuration facing one
// arrival process.
type ServeCell struct {
	Name    string // "default/poisson", "tuned/bursty", ...
	Config  string // "default" or "tuned"
	Arrival string
	Out     *serve.Outcome
}

// ServeResult is the open-loop serving experiment: the OS-default and
// paper-tuned configurations of Machine A each serving a Poisson and a
// bursty arrival stream at identical offered load, plus a WS latency
// campaign whose regret tests the throughput-derived flowchart against
// the p99 objective.
type ServeResult struct {
	MeanService float64 // calibrated per-request service time, cycles
	SLOLabels   []string
	Cells       []ServeCell
	// Regret compares core.Advise's configuration against the latency
	// campaign's best, both measured on the WS workload's p99.
	Regret   report.ServeRegretRow
	Campaign *tune.Result
	Records  []Record
	// Spans holds every cell's request-span tree (Cell-stamped), populated
	// only under Options.Spans.
	Spans []span.Span
}

// serveSpec builds the shared serving spec for a scale: dataset dimensions
// follow the figure drivers, the stream length follows the scale (or the
// options override), and the arrival rate and SLO ladder anchor to the
// calibrated default-config service time so every cell faces the same
// offered load.
func serveSpec(s Scale, o ServeOptions) serve.Spec {
	return serveSpecFor(s, o, "Machine A")
}

// serveSpecFor is serveSpec anchored to a named machine's calibrated
// service time, so the serve-adapt sweep offers each machine a load
// proportional to its own speed.
func serveSpecFor(s Scale, o ServeOptions, machineName string) serve.Spec {
	req := s.ServeRequests
	if o.Requests > 0 {
		req = o.Requests
	}
	sp := serve.Spec{
		Requests: req,
		Warmup:   req / 16,
		Workers:  serveWorkers,
		Seed:     1,
		DataRows: s.AggRecords,
		DataCard: s.AggCardinality,
		JoinRows: s.JoinR,
		TPCHSF:   s.TPCHSF,
	}.Normalize()
	mean := serve.CalibratedMeanService(machineName, sp)
	sp.MeanGap = serve.GapFor(mean, sp.Workers, o.Util)
	sp.SLOs = serve.DefaultSLOs(mean)
	return sp
}

// serveMachine builds a serving cell's machine: always profiled (the tail
// attribution is the experiment's point) and always tracing (the p999
// correlation needs the event stream), whatever o.Trace and o.Profile
// say. Both are observation-only, so the measured cycles match an
// uninstrumented run. Under o.Spans the machine is also marked for
// request-span collection (observation-only too).
func (o Options) serveMachine(letter string) *machine.Machine {
	m := o.machineFor(letter)
	obs := machine.ObserveOptions{Profile: true, Spans: o.Spans}
	if _, ok := m.Trace().(*trace.Recorder); !ok {
		obs.Trace, obs.SnapEvery = true, SnapEvery
	}
	m.Observe(obs)
	return m
}

// Serve runs the open-loop serving experiment at a scale; o.Serve shapes
// the stream (zero values defer to the scale and serve defaults).
func Serve(s Scale, o Options) (ServeResult, error) {
	base := serveSpec(s, o.Serve)
	out := ServeResult{
		MeanService: serve.CalibratedMeanService("Machine A", base),
		SLOLabels:   serve.SLOMultiples(),
	}

	configs := []struct {
		name string
		cfg  machine.RunConfig
	}{
		{"default", machine.DefaultConfig(serveWorkers)},
		{"tuned", machine.TunedConfig(serveWorkers)},
	}
	type cell struct {
		sc  ServeCell
		rec Record
	}
	cells, err := core.Collect(o.Runner, len(configs)*len(serveArrivals), func(i int) (cell, error) {
		start := startCell()
		c := configs[i/len(serveArrivals)]
		arrival := serveArrivals[i%len(serveArrivals)]
		m := o.serveMachine("A")
		m.Configure(c.cfg)
		sp := base
		sp.Arrival = arrival
		so := serve.Run(m, sp)
		name := c.name + "/" + arrival
		rec := finishCell(start, name,
			map[string]string{"config": c.name, "arrival": arrival},
			m, so.Result.WallCycles)
		rec.Extra = serveExtra(so)
		return cell{ServeCell{Name: name, Config: c.name, Arrival: arrival, Out: so}, rec}, nil
	})
	if err != nil {
		return ServeResult{}, err
	}
	for _, c := range cells {
		out.Cells = append(out.Cells, c.sc)
		out.Records = append(out.Records, c.rec)
		out.Spans = stampSpans(out.Spans, c.sc.Name, c.sc.Out.Spans)
	}

	// The WS latency campaign: coordinate descent over the full knob
	// space, minimizing p99 instead of wall cycles. Its regret row is the
	// tentpole question — does the throughput-derived flowchart advice
	// also minimize the tail?
	res, err := tune.Run(tune.Spec{
		Strategy: tune.StrategyDescent, Space: tune.DefaultSpace(),
		Workload: "WS", Machine: "A", Threads: serveWorkers, Size: TuneSize(s),
	}, o.Runner, nil, nil, nil)
	if err != nil {
		return ServeResult{}, err
	}
	out.Campaign = res
	recs, err := tuneRecords(res)
	if err != nil {
		return ServeResult{}, err
	}
	out.Records = append(out.Records, recs...)
	row, err := tune.RegretWithFallback(res)
	if err != nil {
		return ServeResult{}, err
	}
	out.Regret = report.ServeRegretRow{
		Machine:    row.Machine,
		Workload:   row.Workload,
		Objective:  "p99_latency",
		AdvisedKey: row.AdvisedKey,
		AdvisedP99: row.AdvisedCycles,
		BestKey:    row.BestKey,
		BestP99:    row.BestCycles,
	}
	return out, nil
}

// serveExtra flattens a serving outcome into the record's scalar outputs.
// Every value is finite (the serve metrics guarantee it), and SLO keys
// carry their ladder label so the summary tooling needs no side channel.
func serveExtra(o *serve.Outcome) map[string]float64 {
	mt := o.Metrics
	e := map[string]float64{
		"requests":     float64(mt.Requests),
		"mean_service": mt.MeanService,
		"mean_wait":    mt.MeanWait,
		"mean_latency": mt.MeanLatency,
		"p50":          mt.P50,
		"p90":          mt.P90,
		"p99":          mt.P99,
		"p999":         mt.P999,
		"makespan":     mt.Makespan,
		"rpbc":         mt.Throughput,
		"tail_count":   float64(o.Tail.Count),
		"setup_cycles": o.Setup,
	}
	labels := serve.SLOMultiples()
	for i, slo := range mt.SLOs {
		if i < len(labels) {
			e["slo_"+labels[i]] = slo.Attained
		}
	}
	return e
}

// RenderSummary is the per-cell latency summary with SLO attainment.
func (r ServeResult) RenderSummary() *report.Table {
	rows := make([]report.LatencyRow, 0, len(r.Cells))
	for _, c := range r.Cells {
		mt := c.Out.Metrics
		row := report.LatencyRow{
			Cell: c.Name, Arrival: c.Arrival, Requests: mt.Requests,
			MeanService: mt.MeanService, MeanLatency: mt.MeanLatency,
			P50: mt.P50, P99: mt.P99, P999: mt.P999,
		}
		for _, slo := range mt.SLOs {
			row.SLOs = append(row.SLOs, slo.Attained)
		}
		rows = append(rows, row)
	}
	return report.LatencySummaryTable(
		fmt.Sprintf("Open-loop serving on Machine A, %d workers (latency in cycles; SLOs at 5x/20x/100x the calibrated mean service %s)",
			serveWorkers, report.Cycles(r.MeanService)),
		r.SLOLabels, rows)
}

// RenderHistogram is the log2 latency distribution per cell.
func (r ServeResult) RenderHistogram() *report.Table {
	var rows []report.LatencyHistRow
	for _, c := range r.Cells {
		mt := c.Out.Metrics
		for _, hb := range mt.Hist {
			share := 0.0
			if mt.Requests > 0 {
				share = float64(hb.Count) / float64(mt.Requests)
			}
			rows = append(rows, report.LatencyHistRow{
				Cell: c.Name, Lo: hb.Lo, Hi: hb.Hi, Count: hb.Count, Share: share,
			})
		}
	}
	return report.LatencyHistogramTable("Serving latency histograms (power-of-two buckets)", rows)
}

// RenderTail is the p999 attribution: queueing share, profile-bucket
// shares and trace-event rates, tail vs all requests.
func (r ServeResult) RenderTail() *report.Table {
	var rows []report.TailRow
	for _, c := range r.Cells {
		tl := c.Out.Tail
		rows = append(rows, report.TailRow{
			Cell: c.Name, Component: tl.QueueWait.Name,
			All: tl.QueueWait.All, Tail: tl.QueueWait.Tail,
		})
		for _, cp := range tl.Buckets {
			rows = append(rows, report.TailRow{Cell: c.Name, Component: cp.Name, All: cp.All, Tail: cp.Tail})
		}
		for _, cp := range tl.Events {
			rows = append(rows, report.TailRow{Cell: c.Name, Component: cp.Name, All: cp.All, Tail: cp.Tail})
		}
	}
	return report.TailAttributionTable("p999 tail attribution (share of cycles / events per request)", rows)
}

// RenderRegret is the latency-flowchart validation row.
func (r ServeResult) RenderRegret() *report.Table {
	return report.LatencyRegretTable("Latency-flowchart regret: core.Advise vs p99-tuned optimum (WS, Machine A)",
		[]report.ServeRegretRow{r.Regret})
}
