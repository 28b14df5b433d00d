package experiments

import "testing"

// adaptTestScale sizes the partition past Machine A's per-node LLC so the
// phase schedule generates sustained DRAM traffic; everything else stays
// at Tiny since the adapt driver does not touch the figure datasets.
var adaptTestScale = Scale{AdaptPartKB: Cal.AdaptPartKB}

// runAdaptColumn measures the Machine A column: the static family plus
// the adaptive configuration for one workload, returning ops by config.
func runAdaptColumn(t *testing.T, workload string) map[string]AdaptCell {
	t.Helper()
	out := map[string]AdaptCell{}
	for _, cf := range []string{"firsttouch", "interleave", "autonuma", "adaptive"} {
		c, _ := adaptRunCell(adaptTestScale, Options{}, "A", workload, cf)
		out[cf] = c
	}
	return out
}

func adaptStaticBestOf(cells map[string]AdaptCell) AdaptCell {
	best := cells["firsttouch"]
	for _, cf := range []string{"interleave", "autonuma"} {
		if cells[cf].Ops > best.Ops {
			best = cells[cf]
		}
	}
	return best
}

// TestAdaptBeatsStaticOnPhased pins the tentpole claim: when the workload
// rotates its target partition every phase, the orchestrator beats the
// best static placement, because no static placement can stay local.
func TestAdaptBeatsStaticOnPhased(t *testing.T) {
	cells := runAdaptColumn(t, "phased")
	best := adaptStaticBestOf(cells)
	ad := cells["adaptive"]
	if ad.Ops <= best.Ops*1.05 {
		t.Fatalf("adaptive %v ops vs static best %v (%s): want >5%% ahead",
			ad.Ops, best.Ops, best.Config)
	}
	if ad.LAR <= best.LAR {
		t.Errorf("adaptive LAR %.3f did not beat static best %.3f", ad.LAR, best.LAR)
	}
	if ad.Stats.ThreadMoves == 0 && ad.Stats.PageMoves == 0 {
		t.Error("adaptive win recorded no migrations; stats not wired?")
	}
}

// TestAdaptMatchesStaticOnSteady pins the hysteresis claim: when a static
// optimum exists, the orchestrator must not churn — no thread moves, and
// throughput within 5% of the best static configuration.
func TestAdaptMatchesStaticOnSteady(t *testing.T) {
	cells := runAdaptColumn(t, "steady")
	best := adaptStaticBestOf(cells)
	ad := cells["adaptive"]
	if ad.Ops < best.Ops*0.95 {
		t.Fatalf("adaptive %v ops vs static best %v (%s): lost more than 5%%",
			ad.Ops, best.Ops, best.Config)
	}
	if ad.Stats.ThreadMoves != 0 {
		t.Errorf("steady workload provoked %d thread moves; hysteresis broken", ad.Stats.ThreadMoves)
	}
}
