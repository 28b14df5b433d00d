// Package core implements the paper's primary contribution: the systematic
// tuning methodology. It defines the experiment parameter space of
// Table IV, the Figure 10 decision flowchart as an executable Advisor that
// turns workload traits into a recommended configuration with the paper's
// rationale attached, and the grid runner every sweep goes through:
// Collect runs independent cells on a Runner's worker pool and returns
// their results by cell index.
package core

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/datagen"
	"repro/internal/machine"
	"repro/internal/vmm"
)

// ParameterSpace enumerates Table IV: every tunable axis and its values,
// with the system default first.
type ParameterSpace struct {
	Workloads       []string
	Placements      []machine.Placement
	Policies        []vmm.Policy
	Allocators      []string
	Distributions   []datagen.Distribution
	DatabaseSystems []string
	OSSwitches      []string
	Machines        []string
}

// Space returns the paper's full parameter space.
func Space() ParameterSpace {
	return ParameterSpace{
		Workloads: []string{
			"W1 Holistic Aggregation", "W2 Distributive Aggregation",
			"W3 Hash Join", "W4 Index Nested Loop Join", "W5 TPC-H",
		},
		Placements:      []machine.Placement{machine.PlaceNone, machine.PlaceSparse, machine.PlaceDense},
		Policies:        vmm.Policies(),
		Allocators:      alloc.Names(),
		Distributions:   datagen.Distributions(),
		DatabaseSystems: []string{"MonetDB", "PostgreSQL", "MySQL", "DBMSx", "Quickstep"},
		OSSwitches:      []string{"AutoNUMA on/off", "Transparent Hugepages on/off"},
		Machines:        []string{"Machine A", "Machine B", "Machine C"},
	}
}

// Traits describes a workload and environment to the Advisor, mirroring
// the decision points of Figure 10.
type Traits struct {
	// ThreadPlacementManaged: the application already pins its threads.
	ThreadPlacementManaged bool
	// MemoryBandwidthBound: the workload saturates memory bandwidth
	// before it saturates cores.
	MemoryBandwidthBound bool
	// SuperuserAccess: kernel switches (AutoNUMA, THP) can be changed.
	SuperuserAccess bool
	// MemoryPlacementDefined: the application already sets a placement
	// policy (numactl or mbind).
	MemoryPlacementDefined bool
	// AllocationHeavy: the workload allocates and frees intensively
	// during execution (W1/W3-like rather than W2/W4-like).
	AllocationHeavy bool
	// FreeMemoryConstrained: memory headroom is tight, so allocator
	// footprint matters.
	FreeMemoryConstrained bool
}

// WorkloadTraits returns the canonical Figure 10 classification of the
// simulated workloads: how the paper's flowchart sees W1 (holistic
// aggregation: streaming scans saturate memory bandwidth and the
// hash-table build allocates heavily) and W3 (hash join: random probes
// are latency- rather than bandwidth-bound, but the build side is
// allocation-heavy). Both assume the reproduction's environment —
// superuser access, no pre-existing thread or memory placement.
func WorkloadTraits(workload string) (Traits, error) {
	switch workload {
	case "W1":
		return Traits{MemoryBandwidthBound: true, SuperuserAccess: true, AllocationHeavy: true}, nil
	case "W3":
		return Traits{SuperuserAccess: true, AllocationHeavy: true}, nil
	case "WS":
		// The open-loop serving mix: its cycle budget is dominated by the
		// aggregation windows (bandwidth-bound streaming scans) and the
		// join kernels allocate per request, so the flowchart sees it as
		// W1-like. The serve experiment's regret table tests whether this
		// throughput-derived advice also minimizes p999 latency.
		return Traits{MemoryBandwidthBound: true, SuperuserAccess: true, AllocationHeavy: true}, nil
	}
	return Traits{}, fmt.Errorf("core: no canonical traits for workload %q", workload)
}

// Recommendation is the flowchart's output: a configuration plus the
// reasoning for each choice.
type Recommendation struct {
	Placement       machine.Placement
	Policy          vmm.Policy
	DisableAutoNUMA bool
	DisableTHP      bool
	Allocator       string
	Rationale       []string
}

// Advise walks the Figure 10 flowchart.
func Advise(tr Traits) Recommendation {
	rec := Recommendation{Policy: vmm.FirstTouch, Allocator: "ptmalloc"}
	if !tr.ThreadPlacementManaged {
		if tr.MemoryBandwidthBound {
			rec.Placement = machine.PlaceSparse
			rec.Rationale = append(rec.Rationale,
				"thread placement unmanaged and bandwidth-bound: affinitize with the Sparse strategy to use every memory controller")
		} else {
			rec.Placement = machine.PlaceDense
			rec.Rationale = append(rec.Rationale,
				"thread placement unmanaged and not bandwidth-bound: affinitize with the Dense strategy to share caches and minimize remote distance")
		}
	} else {
		rec.Placement = machine.PlaceSparse
		rec.Rationale = append(rec.Rationale, "thread placement already managed by the application")
	}
	if tr.SuperuserAccess {
		rec.DisableAutoNUMA = true
		rec.DisableTHP = true
		rec.Rationale = append(rec.Rationale,
			"superuser access: disable AutoNUMA and Transparent Hugepages, whose overheads dominate for analytics")
	} else {
		rec.Rationale = append(rec.Rationale,
			"no superuser access: kernel switches stay default; compensate with memory placement")
	}
	if !tr.MemoryPlacementDefined {
		rec.Policy = vmm.Interleave
		rec.Rationale = append(rec.Rationale,
			"no placement policy defined: Interleave spreads pages over all controllers and mostly offsets AutoNUMA/THP costs")
	}
	if tr.AllocationHeavy {
		if tr.FreeMemoryConstrained {
			rec.Allocator = "jemalloc"
			rec.Rationale = append(rec.Rationale,
				"allocation-heavy with constrained memory: preload jemalloc (low footprint, good scalability)")
		} else {
			rec.Allocator = "tbbmalloc"
			rec.Rationale = append(rec.Rationale,
				"allocation-heavy: preload tbbmalloc (best scalability; footprint is an accepted trade)")
		}
	} else {
		rec.Rationale = append(rec.Rationale,
			"not allocation-heavy: the default allocator is acceptable, though evaluating alternatives is still recommended")
	}
	return rec
}

// Apply turns a recommendation into a run configuration for n threads.
func (r Recommendation) Apply(n int) machine.RunConfig {
	return machine.RunConfig{
		Threads:   n,
		Placement: r.Placement,
		Policy:    r.Policy,
		Allocator: r.Allocator,
		AutoNUMA:  !r.DisableAutoNUMA,
		THP:       !r.DisableTHP,
		Seed:      1,
	}
}

// Speedup returns the relative latency reduction of b versus a, as the
// paper reports it: (a-b)/a, positive when b is faster.
func Speedup(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}
