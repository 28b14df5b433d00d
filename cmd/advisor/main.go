// Command advisor is the paper's Figure 10 decision flowchart as a CLI: it
// takes the workload's traits as flags and prints a recommended
// configuration with the reasoning for each choice. Optionally it
// validates the advice by running a workload kernel under both the OS
// default and the recommendation on a simulated machine, through the same
// trial path the numatune campaigns use — advisor and tuner cannot
// disagree on methodology.
//
// Usage:
//
//	advisor -bandwidth-bound -superuser -alloc-heavy
//	advisor -alloc-heavy -mem-constrained -validate -machine A
//	advisor -superuser -alloc-heavy -validate -workload W3 -machine C -scale cal
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/tune"
)

func main() {
	var tr core.Traits
	flag.BoolVar(&tr.ThreadPlacementManaged, "placement-managed", false,
		"the application already pins its threads")
	flag.BoolVar(&tr.MemoryBandwidthBound, "bandwidth-bound", false,
		"the workload is memory-bandwidth bound")
	flag.BoolVar(&tr.SuperuserAccess, "superuser", false,
		"kernel switches (AutoNUMA, THP) can be changed")
	flag.BoolVar(&tr.MemoryPlacementDefined, "placement-defined", false,
		"the application already sets a memory placement policy")
	flag.BoolVar(&tr.AllocationHeavy, "alloc-heavy", false,
		"the workload allocates and frees intensively")
	flag.BoolVar(&tr.FreeMemoryConstrained, "mem-constrained", false,
		"free memory headroom is tight")
	validate := flag.Bool("validate", false,
		"run the workload under the OS default and the recommendation to verify the speedup")
	mc := flag.String("machine", "A", "machine for -validate: A, B or C")
	workload := flag.String("workload", "W1", "workload for -validate: W1 or W3")
	scale := flag.String("scale", "cal", "dataset scale for -validate: tiny, small, cal or default")
	flag.Parse()

	rec := core.Advise(tr)
	fmt.Println("Recommended configuration:")
	fmt.Printf("  thread placement:  %s\n", rec.Placement)
	fmt.Printf("  memory placement:  %s\n", rec.Policy)
	fmt.Printf("  AutoNUMA:          %s\n", onOff(!rec.DisableAutoNUMA))
	fmt.Printf("  THP:               %s\n", onOff(!rec.DisableTHP))
	fmt.Printf("  allocator:         %s\n", rec.Allocator)
	fmt.Println("Reasoning:")
	for _, r := range rec.Rationale {
		fmt.Printf("  - %s\n", r)
	}

	if !*validate {
		return
	}
	s, err := cli.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisor:", err)
		os.Exit(2)
	}
	wl, err := tune.WorkloadByID(strings.ToUpper(*workload))
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisor:", err)
		os.Exit(2)
	}
	m, err := tune.MachineFor(strings.ToUpper(*mc))
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisor:", err)
		os.Exit(2)
	}

	fmt.Printf("\nValidating on %s (%s: %s)...\n", m.Spec.Name, wl.ID, wl.Name)
	run := func(p tune.Point) float64 {
		out, err := tune.RunTrial(tune.TrialKey{
			Workload: wl.ID,
			Machine:  strings.ToUpper(*mc),
			Point:    p,
			Seed:     1,
			Size:     experiments.TuneSize(s),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "advisor:", err)
			os.Exit(1)
		}
		return out.Cycles
	}
	def := run(tune.DefaultPoint())
	adv := run(tune.FromRecommendation(rec))
	fmt.Printf("  OS default:   %.3f billion cycles\n", def/1e9)
	fmt.Printf("  recommended:  %.3f billion cycles\n", adv/1e9)
	fmt.Printf("  latency reduction: %.1f%%\n", core.Speedup(def, adv)*100)
}

func onOff(b bool) string {
	if b {
		return "on (default)"
	}
	return "off"
}
