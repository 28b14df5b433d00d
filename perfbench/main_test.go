package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// measureTiny runs one set-up and the minimum passes of w at Tiny sizes.
func measureTiny(t *testing.T, w workload, traced bool) *runResult {
	t.Helper()
	res, err := measure(w, tinySizes, 1, 0, traced)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

// TestWorkloadsDeterministic runs every workload untraced at GOMAXPROCS 2
// and 1 and traced, and checks that each passes its checks and that the
// digest and the exact counts are identical across the three runs.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(2)
			a := measureTiny(t, w, false)
			runtime.GOMAXPROCS(1)
			b := measureTiny(t, w, false)
			runtime.GOMAXPROCS(prev)
			c := measureTiny(t, w, true)
			for i, r := range []*runResult{a, b, c} {
				if r.attempted == 0 || r.failed != 0 {
					t.Errorf("run %d: %d of %d operations failed", i, r.failed, r.attempted)
				}
				if r.digest != a.digest {
					t.Errorf("run %d: digest %016x, want %016x", i, r.digest, a.digest)
				}
				if !reflect.DeepEqual(r.exact, a.exact) {
					t.Errorf("run %d: exact counts %v, want %v", i, r.exact, a.exact)
				}
			}
			if len(c.tracedWalls) == 0 || len(c.tr.spans) == 0 {
				t.Errorf("traced run recorded no traced pass or no spans")
			}
		})
	}
}

// TestCorruptReferenceFails checks that a wrong reference answer counts
// every cell it checks as a failed operation.
func TestCorruptReferenceFails(t *testing.T) {
	st := newGrid(nil, tinySizes, 1)
	st.wantAgg++
	outs, _ := runPass(nil, st.cells(), true)
	failed := 0
	for _, o := range outs {
		failed += o.failed
		if strings.HasSuffix(o.name, "/W1") != (o.failed == 1) {
			t.Errorf("cell %s: %d of %d failed", o.name, o.failed, o.ops)
		}
	}
	if want := 2 * len(gridMachines); failed != want {
		t.Errorf("%d failed operations, want %d", failed, want)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON runs the command in both modes and
// checks that it prints exactly the metrics, with the units, that
// BENCHMARK.json declares, and that the workloads agree.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for mode, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "serve-observed", "--seconds", "0", "--scale", "tiny", "--trace", trace, "--out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var out struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !out.Correct || out.Attempted == 0 || out.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, out.Correct, out.Attempted, out.Failed)
		}
		got := map[string]string{}
		for name, v := range out.Metrics {
			got[name] = v.Unit
		}
		if !reflect.DeepEqual(got, want[mode]) {
			t.Errorf("trace %s: printed metrics differ from BENCHMARK.json:\n%s", trace, diffKeys(got, want[mode]))
		}
	}
}

func diffKeys(got, want map[string]string) string {
	var d []string
	for k, u := range got {
		if want[k] != u {
			d = append(d, "printed "+k+" ("+u+")")
		}
	}
	for k, u := range want {
		if got[k] != u {
			d = append(d, "declared "+k+" ("+u+")")
		}
	}
	sort.Strings(d)
	return strings.Join(d, "\n")
}

// TestUsageErrors checks that bad arguments exit non-zero without a
// result line.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-grid", "--scale", "huge"},
		{"--workload", "paper-grid", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestCommittedTPCHAnswers checks that the documented seeds have
// committed TPC-H answers, so their runs check against them.
func TestCommittedTPCHAnswers(t *testing.T) {
	for _, c := range []struct {
		z    sizes
		seed uint64
	}{{tinySizes, 1}, {calSizes, 1}, {calSizes, heldOutSeed}} {
		key := tpchKey(c.z.scale.TPCHSF, deriveSeed(c.seed, labelTPCH))
		if len(committedTPCH[key]) != 22 {
			t.Errorf("seed %d: no committed answers under %s", c.seed, key)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if got := tail(xs); got != 90 {
		t.Errorf("tail of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
	if got := tail(xs[:5]); got != 5 {
		t.Errorf("tail of 1..5 = %v, want the largest", got)
	}
	if got := median(xs[:4]); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}
