package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestCellsEnumerateInResultOrder pins the cell decomposition to the
// order RunMatrixContext returns results: (trace, P/E, scheme).
func TestCellsEnumerateInResultOrder(t *testing.T) {
	spec := MatrixSpec{
		Traces:      []string{"ts0", "wdev0"},
		Schemes:     []string{"Baseline", "IPU"},
		PEBaselines: []int{0, 3000},
		Scale:       0.01,
		Seed:        7,
	}
	cells := Cells(spec)
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	want := []MatrixCell{
		{"ts0", "Baseline", 0}, {"ts0", "IPU", 0},
		{"ts0", "Baseline", 3000}, {"ts0", "IPU", 3000},
		{"wdev0", "Baseline", 0}, {"wdev0", "IPU", 0},
		{"wdev0", "Baseline", 3000}, {"wdev0", "IPU", 3000},
	}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("cell order:\n got %v\nwant %v", cells, want)
	}
}

// TestRunCellMatchesMatrixElement asserts the cell-level unit of
// distribution: running each cell independently produces results
// bit-identical to the full matrix at the same index. This is the
// guarantee the coordinator's sharded sweeps rest on.
func TestRunCellMatchesMatrixElement(t *testing.T) {
	spec := MatrixSpec{
		Traces:      []string{"ts0"},
		Schemes:     []string{"Baseline", "IPU"},
		PEBaselines: []int{0, 3000},
		Scale:       0.01,
		Seed:        11,
	}
	want, err := RunMatrixContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := Cells(spec)
	if len(cells) != len(want) {
		t.Fatalf("cells = %d, matrix rows = %d", len(cells), len(want))
	}
	for i, c := range cells {
		got, err := RunCellContext(context.Background(), spec, c)
		if err != nil {
			t.Fatalf("cell %v: %v", c, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("cell %v diverged from matrix element %d:\n got %+v\nwant %+v", c, i, got, want[i])
		}
	}
}

// TestSensitivityPointCellsMatchSweep asserts a sensitivity sweep
// decomposes into per-point cells whose independent runs re-render the
// exact table of the monolithic sweep, with the worker-side
// SensitivityCellConfig reconstructing each point's flash configuration.
func TestSensitivityPointCellsMatchSweep(t *testing.T) {
	const param = "slcratio"
	spec := MatrixSpec{Traces: []string{"ts0"}, Scale: 0.01, Seed: 5}
	want, err := RunSensitivityContext(context.Background(), param, spec)
	if err != nil {
		t.Fatal(err)
	}

	values := SensitivityParams[param]
	perPoint := make([][]*Result, len(values))
	for i, v := range values {
		pointSpec, err := SensitivityPointSpec(spec, param, v)
		if err != nil {
			t.Fatal(err)
		}
		// A worker reconstructs the point's flash config from (param, value)
		// alone; it must match the coordinator's point spec.
		fc, err := SensitivityCellConfig(param, v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fc, *pointSpec.Flash) {
			t.Fatalf("%s=%v: cell config diverged from point spec", param, v)
		}
		for _, c := range Cells(pointSpec) {
			r, err := RunCellContext(context.Background(), pointSpec, c)
			if err != nil {
				t.Fatal(err)
			}
			perPoint[i] = append(perPoint[i], r)
		}
	}
	got := SensitivityTable(param, values, perPoint)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded sensitivity table diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestForEachCell pins the contract of the worker pool every sweep
// shares: at most min(workers, n) goroutines, one call and one result
// slot per index, every dispatched cell finishing before the lowest-index
// error is returned, and a cancel that joins every worker.
func TestForEachCell(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		err := ForEachCell(context.Background(), 4, 0, func(int) error {
			t.Error("run called with n == 0")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("surplus-workers", func(t *testing.T) {
		// Every cell waits until all n have started, so all n run at once;
		// at that point no idle surplus worker may exist.
		const n = 3
		before := runtime.NumGoroutine()
		var started atomic.Int32
		all := make(chan struct{})
		err := ForEachCell(context.Background(), 16, n, func(int) error {
			if started.Add(1) == n {
				if extra := runtime.NumGoroutine() - before; extra > n {
					t.Errorf("%d goroutines running for %d cells", extra, n)
				}
				close(all)
			}
			select {
			case <-all:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("cells did not all run concurrently")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("results-by-index", func(t *testing.T) {
		const n = 100
		for _, workers := range []int{0, 7} {
			out := make([]int, n)
			var calls [n]atomic.Int32
			err := ForEachCell(context.Background(), workers, n, func(i int) error {
				calls[i].Add(1)
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if c := calls[i].Load(); c != 1 || out[i] != i*i {
					t.Fatalf("workers=%d: cell %d: %d calls, result %d", workers, i, c, out[i])
				}
			}
		}
	})

	t.Run("lowest-error", func(t *testing.T) {
		// Cell 3 fails only after cell 7 has failed, so the error returned
		// is chosen by index, not by time.
		const n = 10
		var finished atomic.Int32
		failed7 := make(chan struct{})
		err := ForEachCell(context.Background(), 3, n, func(i int) error {
			defer finished.Add(1)
			switch i {
			case 3:
				select {
				case <-failed7:
				case <-time.After(10 * time.Second):
				}
				return fmt.Errorf("cell %d failed", i)
			case 7:
				defer close(failed7)
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Fatalf("err = %v, want cell 3's error", err)
		}
		if got := finished.Load(); got != n {
			t.Fatalf("%d of %d cells finished", got, n)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		const n = 100
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var started, running atomic.Int32
		err := ForEachCell(ctx, 4, n, func(i int) error {
			started.Add(1)
			running.Add(1)
			defer running.Add(-1)
			if i == 5 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if r := running.Load(); r != 0 {
			t.Fatalf("%d cells still running after return", r)
		}
		if s := started.Load(); s == n {
			t.Fatal("every cell was dispatched after the cancel")
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	})
}
