package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/span"
)

// The serve-adapt experiment (an extension beyond the paper) puts the
// online placement orchestrator under the open-loop serving workload: on
// each machine preset, the OS-default configuration serves the bursty
// arrival stream twice — once static, once with the orchestrator attached
// — and the result is the p999 delta attributable to the orchestrator's
// online moves, decomposed by the span-based blame join (which
// mechanism×initiator the tail cohort's service cycles went to) and
// audited by the orchestrator's per-tick decision journal.
//
// Span collection is always on for these cells (the blame join is the
// experiment's point); it is observation-only, so the measured latencies
// match an uninstrumented run bit for bit.

// serveAdaptConfigs are the two cell configurations per machine.
var serveAdaptConfigs = []string{"static", "adaptive"}

// serveAdaptMachines lists the machine presets the experiment sweeps.
var serveAdaptMachines = []string{"A", "B", "C"}

// ServeAdaptCell is one machine × config serving measurement.
type ServeAdaptCell struct {
	Machine string // preset letter ("A", "B", "C")
	Config  string // "static" or "adaptive"
	Out     *serve.Outcome
	// Stats/Journal hold the orchestrator's totals and per-tick decision
	// records; zero/nil for static cells.
	Stats   orchestrator.Stats
	Journal []orchestrator.Decision
	// Blame is the span-based tail attribution for this cell.
	Blame []span.BlameRow
}

// ServeAdaptResult holds the orchestrator-under-serving experiment.
type ServeAdaptResult struct {
	SLOLabels []string
	Cells     []ServeAdaptCell
	Records   []Record
	// Spans holds every cell's request-span tree (Cell-stamped). Unlike
	// the serve experiment, spans are always collected here.
	Spans []span.Span
}

// ServeAdapt runs the orchestrator-under-serving experiment at a scale.
// Serve options shape the stream, Adapt options the orchestrator.
func ServeAdapt(s Scale, o Options) (ServeAdaptResult, error) {
	o.Spans = true // the blame join needs every cell's spans
	out := ServeAdaptResult{SLOLabels: serve.SLOMultiples()}
	type cell struct {
		c   ServeAdaptCell
		rec Record
	}
	grid := len(serveAdaptMachines) * len(serveAdaptConfigs)
	cells, err := core.Collect(o.Runner, grid, func(i int) (cell, error) {
		start := startCell()
		letter := serveAdaptMachines[i/len(serveAdaptConfigs)]
		config := serveAdaptConfigs[i%len(serveAdaptConfigs)]

		m := o.serveMachine(letter)
		m.Configure(machine.DefaultConfig(serveWorkers))
		sp := serveSpecFor(s, o.Serve, m.Spec.Name)
		sp.Arrival = serve.ArrivalBursty

		var orch *orchestrator.Orchestrator
		if config == "adaptive" {
			orch = orchestrator.New(o.Adapt.config())
			orch.Attach(m)
			defer orch.Detach()
		}

		so := serve.Run(m, sp)
		c := ServeAdaptCell{Machine: letter, Config: config, Out: so, Blame: so.Blame()}
		if orch != nil {
			c.Stats = orch.Stats()
			c.Journal = orch.Journal()
		}

		name := letter + "/" + config
		rec := finishCell(start, name,
			map[string]string{"machine": letter, "config": config, "arrival": sp.Arrival},
			m, so.Result.WallCycles)
		rec.Extra = serveExtra(so)
		rec.Extra["ticks"] = float64(c.Stats.Ticks)
		rec.Extra["thread_moves"] = float64(c.Stats.ThreadMoves)
		rec.Extra["page_moves"] = float64(c.Stats.PageMoves)
		rec.Extra["reweights"] = float64(c.Stats.Reweights)
		return cell{c, rec}, nil
	})
	if err != nil {
		return ServeAdaptResult{}, err
	}
	for _, c := range cells {
		out.Cells = append(out.Cells, c.c)
		out.Records = append(out.Records, c.rec)
		out.Spans = stampSpans(out.Spans, c.c.Machine+"/"+c.c.Config, c.c.Out.Spans)
	}
	return out, nil
}

// find returns the cell for one machine × config.
func (r ServeAdaptResult) find(mc, cf string) (ServeAdaptCell, bool) {
	for _, c := range r.Cells {
		if c.Machine == mc && c.Config == cf {
			return c, true
		}
	}
	return ServeAdaptCell{}, false
}

// RenderP999 is the headline table: per machine, the static versus
// adaptive tail latencies and the orchestrator activity behind the delta.
// A negative delta means the orchestrator's online moves shortened the
// p999 tail; a positive one means its migrations cost more than they
// recovered.
func (r ServeAdaptResult) RenderP999() *report.Table {
	t := &report.Table{
		Title: "Orchestrator under serving: p999 latency, static vs adaptive (bursty arrivals, cycles)",
		Header: []string{"machine", "p999 static", "p999 adaptive", "delta", "p99 static",
			"p99 adaptive", "ticks", "thread moves", "page moves"},
	}
	for _, mc := range serveAdaptMachines {
		st, ok1 := r.find(mc, "static")
		ad, ok2 := r.find(mc, "adaptive")
		if !ok1 || !ok2 {
			continue
		}
		delta := "-"
		if st.Out.Metrics.P999 > 0 {
			delta = fmt.Sprintf("%+.1f%%",
				100*(ad.Out.Metrics.P999-st.Out.Metrics.P999)/st.Out.Metrics.P999)
		}
		t.AddRow(mc,
			report.Cycles(st.Out.Metrics.P999), report.Cycles(ad.Out.Metrics.P999), delta,
			report.Cycles(st.Out.Metrics.P99), report.Cycles(ad.Out.Metrics.P99),
			ad.Stats.Ticks, ad.Stats.ThreadMoves, ad.Stats.PageMoves)
	}
	return t
}

// RenderBlame is the span-based tail attribution for every cell: which
// mechanism, driven by which initiator, the tail cohort's service cycles
// went to.
func (r ServeAdaptResult) RenderBlame() *report.Table {
	var cells []report.BlameCell
	for _, c := range r.Cells {
		cells = append(cells, report.BlameCell{
			Cell: c.Machine + "/" + c.Config,
			Rows: c.Blame,
		})
	}
	return report.BlameTable(
		"p999 blame: migration-family service cycles by mechanism and initiator", cells)
}

// RenderDecisions is the orchestrator's decision journal for the adaptive
// cells, restricted to ticks that planned actions (observe-only ticks are
// elided; the full journal rides in the Chrome trace as orch_decision
// events).
func (r ServeAdaptResult) RenderDecisions() *report.Table {
	var cells []report.DecisionsCell
	for _, mc := range serveAdaptMachines {
		ad, ok := r.find(mc, "adaptive")
		if !ok {
			continue
		}
		var acting []orchestrator.Decision
		for _, d := range ad.Journal {
			if len(d.Actions) > 0 {
				acting = append(acting, d)
			}
		}
		cells = append(cells, report.DecisionsCell{Cell: mc + "/adaptive", Decs: acting})
	}
	return report.DecisionsTable(
		"Orchestrator decision journal (action ticks only; observe-only ticks elided)", cells)
}
