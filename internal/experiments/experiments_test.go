package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/vmm"
)

// calScale is the shared reproduction scale (see Cal), trimmed for test
// runtime on the TPC-H and Figure 3 axes.
var calScale = func() Scale {
	s := Cal
	s.TPCHSF = 0.002
	s.WarmRuns = 1
	s.Fig3Runs = 6
	return s
}()

func TestFig2Shapes(t *testing.T) {
	r, err := Fig2(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Claim 1: tcmalloc fastest single-threaded (within measurement noise
	// of the runner-up), but degrades with threads.
	for _, other := range []string{"ptmalloc", "jemalloc", "Hoard", "supermalloc"} {
		if r.Seconds["tcmalloc"][0] >= r.Seconds[other][0]*1.02 {
			t.Errorf("tcmalloc 1T (%v) should beat %s (%v)", r.Seconds["tcmalloc"][0], other, r.Seconds[other][0])
		}
	}
	last := len(Fig2Threads) - 1
	if r.Seconds["tbbmalloc"][last] >= r.Seconds["tcmalloc"][last] {
		t.Error("tbbmalloc should beat tcmalloc at 16 threads")
	}
	if r.Seconds["Hoard"][last] >= r.Seconds["ptmalloc"][last] {
		t.Error("Hoard should beat ptmalloc at 16 threads")
	}
	if r.Seconds["supermalloc"][last] <= r.Seconds["tbbmalloc"][last]*2 {
		t.Error("supermalloc should be the worst scaler by a margin")
	}
	// Claim 2: mcmalloc's overhead explodes with threads; jemalloc stays low.
	if r.Overhead["mcmalloc"][last] < 3 {
		t.Errorf("mcmalloc overhead at 16T = %v, want >= 3", r.Overhead["mcmalloc"][last])
	}
	if r.Overhead["mcmalloc"][last] < r.Overhead["mcmalloc"][0]*1.5 {
		t.Errorf("mcmalloc overhead should grow with threads: %v", r.Overhead["mcmalloc"])
	}
	if r.Overhead["jemalloc"][last] > 1.6 {
		t.Errorf("jemalloc overhead = %v, should stay low", r.Overhead["jemalloc"][last])
	}
	if r.RenderTime() == nil || r.RenderOverhead() == nil {
		t.Fatal("render failed")
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Relative) != calScale.Fig3Runs {
		t.Fatalf("got %d runs", len(r.Relative))
	}
	// Claim 3: unaffinitized runs fluctuate and even the best is slower.
	minR, maxR := r.Relative[0], r.Relative[0]
	for _, v := range r.Relative {
		if v < minR {
			minR = v
		}
		if v > maxR {
			maxR = v
		}
	}
	if minR < 1.05 {
		t.Errorf("best unaffinitized run (%vx) should still lose to Sparse", minR)
	}
	if maxR < minR*1.4 {
		t.Errorf("runs should fluctuate: min %v max %v", minR, maxR)
	}
	if r.Render() == nil {
		t.Fatal("render failed")
	}
}

func TestTable3Shape(t *testing.T) {
	r, err := Table3(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Claim 4: pinning eliminates migrations, cuts cache misses and
	// remote accesses, and raises LAR.
	if r.Modified.ThreadMigrations != 0 {
		t.Errorf("Sparse migrations = %d, want 0", r.Modified.ThreadMigrations)
	}
	if r.Default.ThreadMigrations < 10 {
		t.Errorf("default migrations = %d, implausibly low", r.Default.ThreadMigrations)
	}
	if r.Modified.CacheMisses >= r.Default.CacheMisses {
		t.Error("pinning should cut cache misses")
	}
	if r.Modified.LAR() <= r.Default.LAR() {
		t.Errorf("pinning should raise LAR: %v vs %v", r.Modified.LAR(), r.Default.LAR())
	}
	if r.Render() == nil {
		t.Fatal("render failed")
	}
}

func TestProfileShape(t *testing.T) {
	r, err := Profile(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 3 {
		t.Fatalf("got %d cells", len(r.Cells))
	}
	def, pin := r.Cells[0], r.Cells[1]
	// Table III directionally: pinning alone eliminates migrations, cuts
	// cache misses and remote accesses by double digits, and raises LAR.
	if pin.Counters.ThreadMigrations != 0 {
		t.Errorf("pinned migrations = %d, want 0", pin.Counters.ThreadMigrations)
	}
	if def.Counters.ThreadMigrations < 10 {
		t.Errorf("default migrations = %d, implausibly low", def.Counters.ThreadMigrations)
	}
	if float64(pin.Counters.CacheMisses) > 0.9*float64(def.Counters.CacheMisses) {
		t.Errorf("pinning should cut cache misses >=10%%: %d vs %d",
			pin.Counters.CacheMisses, def.Counters.CacheMisses)
	}
	if float64(pin.Counters.RemoteAccesses) > 0.9*float64(def.Counters.RemoteAccesses) {
		t.Errorf("pinning should cut remote accesses >=10%%: %d vs %d",
			pin.Counters.RemoteAccesses, def.Counters.RemoteAccesses)
	}
	if pin.Counters.LAR() <= def.Counters.LAR() {
		t.Errorf("pinning should raise LAR: %v vs %v", pin.Counters.LAR(), def.Counters.LAR())
	}
	// The attribution explains the deltas: the default pays for thread
	// migrations and AutoNUMA scanning; the pinned cell pays neither.
	dTot, pTot := def.Profile.Totals(), pin.Profile.Totals()
	if dTot[machine.BucketThreadMigration] == 0 || dTot[machine.BucketAutoNUMAScan] == 0 {
		t.Error("default cell should attribute thread-migration and AutoNUMA-scan cycles")
	}
	if pTot[machine.BucketThreadMigration] != 0 || pTot[machine.BucketAutoNUMAScan] != 0 {
		t.Error("pinned cell should attribute no migration or balancer cycles")
	}
	// Every cell: buckets reconcile with wall, matrix with counters.
	for _, c := range r.Cells {
		var sum float64
		for _, v := range c.Profile.Totals() {
			sum += v
		}
		wall := c.Profile.WallCycles()
		if diff := math.Abs(sum - wall); diff > 1e-6*wall {
			t.Errorf("%s: attributed %v != wall %v", c.Name, sum, wall)
		}
		var rows uint64
		for _, n := range c.Profile.MatrixRowSums() {
			rows += n
		}
		if rows != c.Counters.LocalAccesses+c.Counters.RemoteAccesses {
			t.Errorf("%s: matrix total %d != Local+Remote %d", c.Name,
				rows, c.Counters.LocalAccesses+c.Counters.RemoteAccesses)
		}
	}
	if r.RenderTable3Extended() == nil || r.RenderBreakdown() == nil {
		t.Fatal("render failed")
	}
	if len(r.RenderMatrices()) != 3 {
		t.Fatal("want one matrix per cell")
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Claim 5: Sparse wins below full subscription; ties at 16 threads.
	for _, dist := range r.Datasets {
		if r.Sparse[dist][0] >= r.Dense[dist][0] {
			t.Errorf("%s 2T: Sparse (%v) should beat Dense (%v)", dist, r.Sparse[dist][0], r.Dense[dist][0])
		}
		last := len(r.Threads) - 1
		ratio := r.Dense[dist][last] / r.Sparse[dist][last]
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s 16T: Dense and Sparse should converge, ratio %v", dist, ratio)
		}
	}
	if r.Render() == nil {
		t.Fatal("render failed")
	}
}

func TestFig5aShape(t *testing.T) {
	r, err := Fig5a(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Claim 6: AutoNUMA hurts; best overall is Interleave with it off.
	ftIdx, ilIdx := 0, 1
	// At this reduced scale the balancing tax is smaller than at full
	// scale (fewer scan passes per run); the full-scale run in
	// EXPERIMENTS.md shows the paper's ~1.6x.
	if r.OnCycles[ftIdx] <= r.OffCycles[ftIdx]*1.08 {
		t.Errorf("AutoNUMA should hurt First Touch: on=%v off=%v", r.OnCycles[ftIdx], r.OffCycles[ftIdx])
	}
	best := r.OffCycles[ilIdx]
	for i := range r.Policies {
		if r.OnCycles[i] < best || (i != ilIdx && r.OffCycles[i] < best) {
			t.Errorf("Interleave+off (%v) should be the fastest cell", best)
			break
		}
	}
	// Claim: LAR is not predictive — First Touch has the higher LAR yet
	// the default configuration loses to Interleave.
	if r.OnLAR[ftIdx] <= r.OnLAR[ilIdx] {
		t.Error("First Touch should have the higher LAR")
	}
	if r.OnCycles[ftIdx] <= r.OffCycles[ilIdx] {
		t.Error("...and still lose to Interleave with AutoNUMA off")
	}
}

func TestFig5cShape(t *testing.T) {
	r, err := Fig5c(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, a := range r.Allocators {
		idx[a] = i
	}
	// Claim 7: THP hurts the page-returning allocators, is ~neutral for
	// ptmalloc and Hoard.
	for _, bad := range []string{"jemalloc", "tcmalloc", "tbbmalloc"} {
		i := idx[bad]
		if r.On[i] <= r.Off[i]*1.03 {
			t.Errorf("THP should hurt %s: off=%v on=%v", bad, r.Off[i], r.On[i])
		}
	}
	for _, fine := range []string{"ptmalloc", "Hoard"} {
		i := idx[fine]
		if r.On[i] > r.Off[i]*1.1 {
			t.Errorf("THP should be near-neutral for %s: off=%v on=%v", fine, r.Off[i], r.On[i])
		}
	}
}

func TestFig5dShape(t *testing.T) {
	r, err := Fig5d(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Claim 6 (cross-machine): disabling the daemons + Interleave helps on
	// every machine; Machine A gains the most, Machine B the least.
	gain := func(mc string) float64 {
		def := r.On[mc][0]   // First Touch, daemons on (the OS default)
		best := r.Off[mc][1] // Interleave, daemons off
		return (def - best) / def
	}
	gA, gB, gC := gain("A"), gain("B"), gain("C")
	if gA <= 0 || gB <= 0 || gC <= 0 {
		t.Errorf("tuning should help everywhere: A=%v B=%v C=%v", gA, gB, gC)
	}
	if gA <= gB {
		t.Errorf("Machine A (%v) should gain more than Machine B (%v)", gA, gB)
	}
}

func TestFig6W1Shape(t *testing.T) {
	r, err := Fig6W1(calScale, Options{}, "A")
	if err != nil {
		t.Fatal(err)
	}
	// Claim 8: tbbmalloc + Interleave is the winning cell; the gain over
	// the ptmalloc default is substantial.
	def := r.Cell("ptmalloc", vmm.FirstTouch)
	tbb := r.Cell("tbbmalloc", vmm.Interleave)
	if tbb >= def {
		t.Errorf("tbbmalloc+IL (%v) should beat ptmalloc+FT (%v)", tbb, def)
	}
	if (def-tbb)/def < 0.25 {
		t.Errorf("W1 gain = %v, want > 25%%", (def-tbb)/def)
	}
	bestAlloc, _, _ := r.Best()
	if bestAlloc == "ptmalloc" {
		t.Error("the system default should not be the best allocator")
	}
}

func TestFig6W2MostlyPlacement(t *testing.T) {
	r, err := Fig6W2(calScale, Options{}, "A")
	if err != nil {
		t.Fatal(err)
	}
	// Claim 8 (W2): gains come from Interleave, not the allocator.
	ptFT := r.Cell("ptmalloc", vmm.FirstTouch)
	ptIL := r.Cell("ptmalloc", vmm.Interleave)
	tbbIL := r.Cell("tbbmalloc", vmm.Interleave)
	placementGain := (ptFT - ptIL) / ptFT
	allocatorGain := (ptIL - tbbIL) / ptIL
	if placementGain < 0.1 {
		t.Errorf("W2 placement gain = %v, want > 10%%", placementGain)
	}
	if allocatorGain > placementGain {
		t.Errorf("W2 allocator gain (%v) should not exceed placement gain (%v)", allocatorGain, placementGain)
	}
}

func TestFig6W3Shape(t *testing.T) {
	r, err := Fig6W3(calScale, Options{}, "A")
	if err != nil {
		t.Fatal(err)
	}
	def := r.Cell("ptmalloc", vmm.FirstTouch)
	tbb := r.Cell("tbbmalloc", vmm.Interleave)
	if (def-tbb)/def < 0.2 {
		t.Errorf("W3 gain = %v, want > 20%%", (def-tbb)/def)
	}
}

func TestFig6jShape(t *testing.T) {
	r, err := Fig6j(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Claim 9: tbbmalloc stays best across dataset distributions.
	idx := map[string]int{}
	for i, a := range r.Allocators {
		idx[a] = i
	}
	for d := range r.Datasets {
		if r.Cycles[idx["tbbmalloc"]][d] >= r.Cycles[idx["ptmalloc"]][d] {
			t.Errorf("dataset %s: tbbmalloc should beat ptmalloc", r.Datasets[d])
		}
	}
}

func TestFig7Shape(t *testing.T) {
	var grids []Fig7Result
	for _, kind := range index.Kinds() {
		g, err := Fig7(calScale, Options{}, kind)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, g)
	}
	e := Fig7eFromGrids(grids)
	// Claim 10: ART and B+tree are the fastest indexes overall; the Skip
	// List's join is the slowest.
	join := map[index.Kind]float64{}
	for i, k := range e.Kinds {
		join[k] = e.Join[i]
	}
	if join[index.SkipListKind] <= join[index.ARTKind] || join[index.SkipListKind] <= join[index.BTreeKind] {
		t.Errorf("Skip List (%v) should be slowest; ART %v, B+tree %v",
			join[index.SkipListKind], join[index.ARTKind], join[index.BTreeKind])
	}
	if e.Render() == nil {
		t.Fatal("render failed")
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Claim 11: every system gains on average; MySQL (single-threaded)
	// gains less than MonetDB (fully parallel).
	for _, sys := range r.Systems {
		if r.Mean(sys) <= 0 {
			t.Errorf("%s mean reduction = %v, want > 0", sys, r.Mean(sys))
		}
		if r.Max(sys) <= r.Mean(sys) {
			t.Errorf("%s max (%v) should exceed mean (%v)", sys, r.Max(sys), r.Mean(sys))
		}
	}
	if r.Render() == nil {
		t.Fatal("render failed")
	}
}

func TestFig9Shape(t *testing.T) {
	s := calScale
	s.TPCHSF = 0.005 // enough rows for the allocator effect to register
	r, err := Fig9(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Claim 12: tbbmalloc reduces MonetDB's Q18 latency vs ptmalloc (the
	// paper reports -20%; our Q5 does not reproduce for per-thread-heap
	// allocators — see EXPERIMENTS.md deviations).
	idx := map[string]int{}
	for i, a := range r.Allocators {
		idx[a] = i
	}
	if r.Q18[idx["tbbmalloc"]] >= r.Q18[idx["ptmalloc"]] {
		t.Errorf("tbbmalloc (%v) should cut Q18 latency vs ptmalloc (%v)",
			r.Q18[idx["tbbmalloc"]], r.Q18[idx["ptmalloc"]])
	}
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.AdvisedCycles >= r.DefaultCycles {
		t.Errorf("advised (%v) should beat default (%v)", r.AdvisedCycles, r.DefaultCycles)
	}
	// The advisor should land within 25% of the grid optimum.
	if r.AdvisedCycles > r.GridBestCycles*1.25 {
		t.Errorf("advised (%v) too far from grid best (%v)", r.AdvisedCycles, r.GridBestCycles)
	}
	if r.Render() == nil {
		t.Fatal("render failed")
	}
}

func TestTable2Renders(t *testing.T) {
	tab := Table2()
	var sb strings.Builder
	tab.Render(&sb)
	for _, want := range []string{"Machine A", "Machine B", "Machine C"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table II missing %s", want)
		}
	}
}

func TestMachineForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Options{}.machineFor("Z")
}

func TestAblationShape(t *testing.T) {
	r, err := Ablate(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) < 5 {
		t.Fatalf("only %d ablations ran", len(r.Names))
	}
	full := r.Gain[0]
	if full <= 0.2 {
		t.Fatalf("full model headline gain = %v, want > 20%%", full)
	}
	// Each mechanism contributes: removing the AutoNUMA costs must shrink
	// the measured gain (the default config stops paying the daemon tax).
	for i, n := range r.Names {
		if n == "free AutoNUMA (no scan tax, free migrations)" {
			if r.Gain[i] >= full {
				t.Errorf("removing AutoNUMA costs should shrink the gain: %v vs %v", r.Gain[i], full)
			}
		}
	}
	if r.Render() == nil {
		t.Fatal("render failed")
	}
}

func TestPolicySensitivity(t *testing.T) {
	r, err := PolicySensitivity(calScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes) != 8 {
		t.Fatalf("Machine A has 8 nodes, swept %d", len(r.Nodes))
	}
	// All Preferred variants concentrate traffic, so every one should be
	// slower than the Interleave baseline.
	m := Options{}.machineFor("A")
	cfg := baseConfig(16)
	cfg.Policy = vmm.Interleave
	m.Configure(cfg)
	il := runW1(m, calScale, "MovingCluster").Result.WallCycles
	for i, n := range r.Nodes {
		if r.Cycles[i] <= il {
			t.Errorf("Preferred(node %d) = %v should lose to Interleave (%v)", n, r.Cycles[i], il)
		}
	}
}
