package core

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Runner executes independent grid cells on a bounded worker pool. Every
// cell builds its own fully isolated state (a fresh machine, fresh derived
// RNG streams), so cells may run in any order on any worker; results are
// always collected by cell index, which keeps output byte-identical to a
// serial run. The zero value runs on GOMAXPROCS workers.
type Runner struct {
	// Workers bounds the number of concurrently executing cells. Zero or
	// negative means runtime.GOMAXPROCS(0); one is a serial run.
	Workers int
	// Progress, when non-nil, is called after each cell completes with the
	// number of finished cells, the total, and the elapsed wall time since
	// the grid started. Calls are serialized by the runner.
	Progress ProgressFunc
}

// ProgressFunc observes grid progress; see Runner.Progress.
type ProgressFunc func(done, total int, elapsed time.Duration)

// Serial is a single-worker Runner: cells run one at a time in index order.
var Serial = Runner{Workers: 1}

// workers resolves the effective worker count for n cells.
func (r Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// CellError reports the failure of one grid cell: the cell's index, the
// underlying error, and — when the cell panicked — the captured stack
// trace. Panics inside cells are recovered and converted to CellErrors so
// one malformed cell fails the grid cleanly instead of crashing the whole
// process mid-sweep.
type CellError struct {
	Index int
	Err   error
	Stack []byte // non-nil when the cell panicked
}

// Error implements error.
func (e *CellError) Error() string {
	if e.Stack != nil {
		return fmt.Sprintf("core: cell %d panicked: %v", e.Index, e.Err)
	}
	return fmt.Sprintf("core: cell %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error.
func (e *CellError) Unwrap() error { return e.Err }

// Do runs fn(i) for every i in [0, n) on the runner's worker pool. Panics
// in fn are recovered into CellErrors. The returned error is nil when
// every cell succeeded, otherwise the cell errors joined in index order
// (deterministic regardless of completion order).
func (r Runner) Do(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := r.workers(n)
	start := time.Now()

	var (
		next int64 = -1
		mu   sync.Mutex
		errs []*CellError
		done int
		wg   sync.WaitGroup
	)
	finish := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			var ce *CellError
			if !errors.As(err, &ce) {
				ce = &CellError{Index: -1, Err: err}
			}
			errs = append(errs, ce)
		}
		done++
		if r.Progress != nil {
			r.Progress(done, n, time.Since(start))
		}
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				finish(runCell(i, fn))
			}
		}()
	}
	wg.Wait()

	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Index < errs[j].Index })
	joined := make([]error, len(errs))
	for i, e := range errs {
		joined[i] = e
	}
	return errors.Join(joined...)
}

// runCell executes one cell, converting a panic into a *CellError.
func runCell(i int, fn func(i int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &CellError{
				Index: i,
				Err:   fmt.Errorf("panic: %v", p),
				Stack: debug.Stack(),
			}
		}
	}()
	if e := fn(i); e != nil {
		var ce *CellError
		if errors.As(e, &ce) {
			return e
		}
		return &CellError{Index: i, Err: e}
	}
	return nil
}

// Collect runs fn for every cell index and gathers the results in index
// order, independent of which worker finished first. On any cell failure
// it returns nil results and the joined cell errors.
func Collect[T any](r Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := r.Do(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
