// Package repro is a faithful, simulator-backed reproduction of
// "The Art of Efficient In-memory Query Processing on NUMA Systems: a
// Systematic Approach" (Memarzia, Ray, Bhavsar — ICDE 2020).
//
// It provides:
//
//   - a deterministic NUMA hardware simulator (topologies, caches, TLBs,
//     placement policies, AutoNUMA and THP kernel daemons, OS scheduler
//     behaviour) with presets for the paper's three machines;
//   - behavioural models of seven dynamic memory allocators;
//   - the paper's five workloads: holistic and distributive aggregation,
//     hash join, index nested-loop join over four in-memory indexes, and
//     TPC-H on five database-engine profiles;
//   - the systematic-tuning methodology itself: the Table IV parameter
//     space, experiment drivers for every figure and table, and the
//     Figure 10 decision flowchart as an executable advisor.
//
// This package is a facade over the names the examples use: machines and
// their configurations, the workloads, the advisor, TPC-H, and the trace,
// profile and orchestrator entry points. Values it returns keep their full
// method sets; a machine's Observe, for one, configures every instrument
// in one call. The implementation lives under internal/ (see DESIGN.md for
// the system inventory), and the command-line tools under cmd/ drive the
// experiment registry.
//
// Quick start:
//
//	m := repro.NewMachineA()
//	m.Configure(repro.TunedConfig(16))
//	out := repro.Aggregate(m, repro.AggregationSpec{
//	    Records:     repro.MovingCluster(100000, 10000, 1),
//	    Cardinality: 10000,
//	    Holistic:    true,
//	})
//	fmt.Println(m.Seconds(out.Result.WallCycles))
package repro

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/vmm"
)

// Machine configuration types.
type (
	// RunConfig is one point of the paper's parameter space (Table IV).
	RunConfig = machine.RunConfig
	// Policy is the memory placement policy (numactl equivalents).
	Policy = vmm.Policy
	// ObserveOptions selects what a machine's Observe attaches: event
	// trace, cycle profile, counter snapshots, request spans.
	ObserveOptions = machine.ObserveOptions
)

// PlaceSparse spreads threads over every node (the paper's tuned
// affinity).
const PlaceSparse = machine.PlaceSparse

// Memory placement policies.
const (
	FirstTouch = vmm.FirstTouch
	Interleave = vmm.Interleave
)

// Machine constructors and specs for the paper's three evaluation systems.
var (
	NewMachineA = machine.NewA
	NewMachineB = machine.NewB
	NewMachineC = machine.NewC
	SpecA       = machine.SpecA
	SpecB       = machine.SpecB
	SpecC       = machine.SpecC
)

// DefaultConfig returns the out-of-the-box OS configuration (the paper's
// baseline); TunedConfig the paper's recommended configuration.
var (
	DefaultConfig = machine.DefaultConfig
	TunedConfig   = machine.TunedConfig
)

// Workload specs.
type (
	// AggregationSpec describes a W1/W2 aggregation run.
	AggregationSpec = query.AggregationSpec
	// JoinSpec describes a W3 hash join run.
	JoinSpec = query.JoinSpec
	// IndexKind names one of the four W4 indexes.
	IndexKind = index.Kind
)

// Dataset generators (Section IV-B).
var (
	MovingCluster = datagen.MovingCluster
	Zipfian       = datagen.Zipfian
	JoinData      = datagen.Join
)

// Workload executors (W1-W4).
var (
	Aggregate = query.Aggregate
	HashJoin  = query.HashJoin
	IndexJoin = query.IndexJoin
)

// The four in-memory indexes of W4.
const (
	ART      = index.ARTKind
	Masstree = index.MasstreeKind
	BTree    = index.BTreeKind
	SkipList = index.SkipListKind
)

// Traits describes a workload to the Figure 10 decision flowchart.
type Traits = core.Traits

// Advise walks the Figure 10 decision flowchart; Space enumerates the
// Table IV parameter space; Speedup computes relative latency reduction.
var (
	Advise  = core.Advise
	Space   = core.Space
	Speedup = core.Speedup
)

// TPC-H (W5): generate a database, pick an engine profile by name, and
// measure warm query latencies the way the paper does.
var (
	GenerateTPCH   = tpch.Generate
	EngineByName   = tpch.ProfileByName
	NewTPCHHarness = tpch.NewHarness
)

// Event tracing. Attach a recorder with Machine.Observe and every
// simulator event — thread migrations, page faults and migrations,
// hugepage collapses and splits, AutoNUMA scan passes, allocator
// lock-contention stalls, coherence transfers — is recorded with its
// simulated cycle timestamp. ChromeTrace writes the events as a Chrome
// trace-event JSON file (loadable in Perfetto or chrome://tracing);
// TraceSummary and TraceCostHistogram aggregate them into report tables.
// See examples/trace for an end-to-end walkthrough.
var (
	NewTraceRecorder   = trace.NewRecorder
	ChromeTrace        = report.ChromeTrace
	TraceSummary       = report.TraceSummary
	TraceCostHistogram = report.TraceCostHistogram
)

// TraceProcess groups one machine's events for Chrome trace export.
type TraceProcess = report.TraceProcess

// Cycle attribution. Observe with Profile and every charged cycle is
// tagged with a component bucket — compute, cache hits, DRAM by hop
// distance, page-table walks, fault service, kernel daemons, allocator
// work and lock stalls, thread and page migration, TLB shootdowns,
// timesharing — accumulated per thread and per NUMA node alongside an N×N
// node access matrix. Attribution is observation-only: the simulated
// timing is bit-identical with it on or off. See examples/profile.
type (
	// CycleProfile is a machine's accumulated attribution: per-thread and
	// per-node bucket breakdowns plus the node access matrix.
	CycleProfile = machine.Profile
	// BreakdownColumn pairs a name with a profile for BreakdownTable.
	BreakdownColumn = report.BreakdownColumn
	// FoldedProfile pairs a name with a profile for FoldedStacks.
	FoldedProfile = report.FoldedProfile
)

// BreakdownTable renders a percentage-stacked component comparison,
// NodeMatrixTable a numastat-style access matrix, and FoldedStacks writes
// profiles in folded-stack format (speedscope- and flamegraph-loadable).
var (
	BreakdownTable  = report.BreakdownTable
	NodeMatrixTable = report.NodeMatrixTable
	FoldedStacks    = report.FoldedStacks
)

// The adaptive placement orchestrator (see internal/orchestrator): an
// online feedback daemon that migrates threads and pages and reweights
// the interleave rotor from live telemetry, gated by hysteresis and a
// migration-cost budget. Build one with NewOrchestrator and attach it to
// a machine with Attach; DefaultOrchestratorConfig is the adapt
// experiment's tuning.
var (
	NewOrchestrator           = orchestrator.New
	DefaultOrchestratorConfig = orchestrator.DefaultConfig
)
