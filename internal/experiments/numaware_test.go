package experiments

import "testing"

func TestNumawareShape(t *testing.T) {
	r, err := Numaware(Tiny, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// All 9 join cells present, with measured time and the same answer.
	if len(r.Records) != 9+6 {
		t.Fatalf("got %d records, want 15", len(r.Records))
	}
	base := r.Join["A"]["agnostic-tuned"]
	if base.Matches == 0 {
		t.Fatal("agnostic-tuned found no matches")
	}
	for _, mc := range numawareMachines {
		for _, v := range numawareVariants {
			c, ok := r.Join[mc][v]
			if !ok {
				t.Fatalf("missing join cell %s/%s", mc, v)
			}
			if c.Wall <= 0 {
				t.Errorf("join %s/%s charged no time", mc, v)
			}
			// MPSM provably equal to HashJoin (the driver also enforces
			// this and errors out, but assert directly too).
			if c.Matches != base.Matches || c.Checksum != base.Checksum {
				t.Errorf("join %s/%s answer (%d, %d) != agnostic (%d, %d)",
					mc, v, c.Matches, c.Checksum, base.Matches, base.Checksum)
			}
			if sum := c.Build + c.Probe; sum < c.Wall*0.999 || sum > c.Wall*1.001 {
				t.Errorf("join %s/%s phase split %v does not account for wall %v", mc, v, sum, c.Wall)
			}
		}
	}

	// Chunked storage must drop the remote-DRAM cycle share vs the
	// single region on at least 2 of 3 machines (the acceptance gate).
	drops := 0
	for _, mc := range numawareMachines {
		s, okS := r.Storage[mc]["single"]
		c, okC := r.Storage[mc]["chunked"]
		if !okS || !okC {
			t.Fatalf("missing storage cells for machine %s", mc)
		}
		if s.Wall <= 0 || c.Wall <= 0 {
			t.Errorf("storage %s charged no time", mc)
		}
		if c.RemoteSh < s.RemoteSh {
			drops++
		}
		t.Logf("machine %s: remote share single %.3f chunked %.3f", mc, s.RemoteSh, c.RemoteSh)
	}
	if drops < 2 {
		t.Errorf("chunked storage dropped remote share on only %d of 3 machines", drops)
	}

	// Tables render without panicking and carry the expected shapes.
	if got := len(r.RenderJoin().Rows); got != 9 {
		t.Errorf("join table has %d rows, want 9", got)
	}
	if got := len(r.RenderStorage().Rows); got != 3 {
		t.Errorf("storage table has %d rows, want 3", got)
	}
	if got := len(r.RenderVerdict().Rows); got != 3 {
		t.Errorf("verdict table has %d rows, want 3", got)
	}
}
