package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
)

func TestCollectOrderedRegardlessOfWorkers(t *testing.T) {
	square := func(i int) (int, error) { return i * i, nil }
	want, err := Collect(Serial, 100, square)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 16, 1000} {
		got, err := Collect(Runner{Workers: workers}, 100, square)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: cell %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	var cur, peak int64
	err := Runner{Workers: 3}.Do(64, func(i int) error {
		n := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&peak); got > 3 {
		t.Errorf("observed %d concurrent cells, want <= 3", got)
	}
}

func TestDoRecoversPanics(t *testing.T) {
	err := Runner{Workers: 4}.Do(10, func(i int) error {
		if i == 7 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error from the panicking cell")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v does not unwrap to *CellError", err)
	}
	if ce.Index != 7 || ce.Stack == nil {
		t.Errorf("CellError = index %d, stack %v bytes; want index 7 with a stack", ce.Index, len(ce.Stack))
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("error %q should carry the panic value", err)
	}
}

func TestDoJoinsErrorsInIndexOrder(t *testing.T) {
	fail := map[int]bool{2: true, 5: true, 8: true}
	run := func(workers int) string {
		err := Runner{Workers: workers}.Do(10, func(i int) error {
			if fail[i] {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected errors")
		}
		return err.Error()
	}
	serial := run(1)
	for i := 0; i < 5; i++ {
		if got := run(4); got != serial {
			t.Fatalf("error aggregation not deterministic:\nserial: %s\nparallel: %s", serial, got)
		}
	}
}

func TestDoProgressReachesTotal(t *testing.T) {
	var calls, lastDone int64
	err := Runner{Workers: 4, Progress: func(done, total int, elapsed time.Duration) {
		atomic.AddInt64(&calls, 1)
		atomic.StoreInt64(&lastDone, int64(done))
		if total != 20 {
			t.Errorf("total = %d, want 20", total)
		}
	}}.Do(20, func(i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 20 || lastDone != 20 {
		t.Errorf("progress called %d times, last done %d; want 20/20", calls, lastDone)
	}
}

func TestProgressWriterFinalLine(t *testing.T) {
	var sb strings.Builder
	p := ProgressWriter(&sb, "fig2", time.Hour) // throttle everything but the final cell
	p(1, 3, time.Second)
	p(2, 3, 2*time.Second)
	p(3, 3, 3*time.Second)
	out := sb.String()
	if !strings.Contains(out, "[fig2] 3/3 cells") {
		t.Errorf("final progress line missing: %q", out)
	}
	if strings.Contains(out, "2/3") {
		t.Errorf("throttled update should have been suppressed: %q", out)
	}
}

func TestRunGridParallelMatchesSerial(t *testing.T) {
	cell := func(i int) (machine.Result, error) {
		cfg := machine.TunedConfig(i + 1)
		m := machine.NewA()
		m.Configure(cfg)
		return m.Run(cfg.Threads, func(t *machine.Thread) {
			a := t.Malloc(1 << 16)
			t.Write(a, 1<<16)
			t.Read(a, 1<<16)
			t.Free(a, 1<<16)
		}), nil
	}
	serial, err := Collect(Serial, 12, cell)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Collect(Runner{Workers: 4}, 12, cell)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Errorf("cell %d: serial %+v != parallel %+v", i, serial[i], par[i])
		}
	}
}
