package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ipusim/internal/trace"
)

// Every replay is serial, but independent replays run concurrently:
// RunMatrixContext and RunTenantContentionContext spread cells over the
// ForEachCell worker pool, and the simulators in flight share the
// snapshot templates, the device free pool and the trace cache. The tests
// below check that running replays in parallel never changes a result and
// never leaks a worker.

// parallelDiffScale keeps the 5-scheme x 6-trace differential fast while
// still replaying thousands of requests per cell (enough to exercise GC,
// retries and every metric the Result reports).
const parallelDiffScale = 0.01

// replayOnce runs tr through a pooled simulator for cfg and releases it.
func replayOnce(t *testing.T, cfg Config, tr *trace.Trace) *Result {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	res, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelMatchesSerial is the concurrent-replay differential tier:
// for every registered scheme over every synthetic trace profile, two
// replays of the same trace running at once on separate devices (and
// alongside every other subtest) must each produce a Result deeply
// equal — bit for bit, including the order-sensitive ReadBER float
// accumulation — to a replay of the trace run on its own.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tier is not a -short test")
	}
	for _, sc := range SchemeNames {
		for _, trName := range trace.ProfileNames() {
			sc, trName := sc, trName
			t.Run(sc+"/"+trName, func(t *testing.T) {
				t.Parallel()
				tr, err := cachedTrace(trName, 42, parallelDiffScale)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.Scheme = sc
				serial := replayOnce(t, cfg, tr)

				var parallel [2]*Result
				var wg sync.WaitGroup
				for i := range parallel {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						sim, err := New(cfg)
						if err != nil {
							t.Error(err)
							return
						}
						defer sim.Release()
						res, err := sim.Run(tr)
						if err != nil {
							t.Error(err)
							return
						}
						parallel[i] = res
					}(i)
				}
				wg.Wait()
				for i, res := range parallel {
					if res != nil && !reflect.DeepEqual(serial, res) {
						t.Errorf("concurrent replay %d diverged from serial:\nserial:   %+v\nparallel: %+v", i, serial, res)
					}
				}
			})
		}
	}
}

// TestParallelRepeatable replays one read-heavy trace several times on
// recycled devices from the snapshot pool and asserts every repetition is
// identical — state from an earlier replay must never leak into a later
// one.
func TestParallelRepeatable(t *testing.T) {
	tr, err := cachedTrace("ads", 42, parallelDiffScale)
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for i := 0; i < 3; i++ {
		res := replayOnce(t, DefaultConfig(), tr)
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(first, res) {
			t.Fatalf("repetition %d diverged:\nfirst: %+v\ngot:   %+v", i, first, res)
		}
	}
}

// TestParallelMatrixMatchesSerial runs a small sweep on a four-worker pool
// of pooled devices and compares every cell with the same replay run on
// its own against a freshly built, unpooled device.
func TestParallelMatrixMatchesSerial(t *testing.T) {
	spec := MatrixSpec{
		Traces:  []string{"ts0", "ads"},
		Schemes: []string{"Baseline", "IPU"},
		Scale:   parallelDiffScale,
		Seed:    42,
		Workers: 4,
	}
	parallel, err := RunMatrixContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Traces) * len(spec.Schemes); len(parallel) != want {
		t.Fatalf("matrix returned %d cells, want %d", len(parallel), want)
	}
	for _, got := range parallel {
		tr, err := cachedTrace(got.Trace, spec.Seed, spec.Scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Scheme = got.Scheme
		sim, err := NewFresh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("(%s, %s) from the four-worker sweep diverged from a serial fresh replay:\nserial:   %+v\nparallel: %+v",
				got.Trace, got.Scheme, want, got)
		}
	}
}

// TestParallelCancelNoLeak cancels four-worker sweeps — matrix and
// contention — mid-run and asserts the worker pool is joined — no
// goroutine outlives the sweep — and the cancelled devices are consistent
// enough to rejoin the snapshot free pool: a later replay on one matches
// a fresh build.
func TestParallelCancelNoLeak(t *testing.T) {
	tr, err := cachedTrace("ts0", 42, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sweeps := []struct {
		name string
		run  func(ctx context.Context, onProgress ProgressFunc) error
	}{
		{"matrix", func(ctx context.Context, onProgress ProgressFunc) error {
			_, err := RunMatrixContext(ctx, MatrixSpec{
				Traces:     []string{"ts0"},
				Scale:      0.05,
				Seed:       42,
				Workers:    4,
				OnProgress: onProgress,
			})
			return err
		}},
		{"contention", func(ctx context.Context, onProgress ProgressFunc) error {
			_, err := RunTenantContentionContext(ctx, TenantContentionSpec{
				Scale:      0.05,
				Seed:       42,
				Workers:    4,
				OnProgress: onProgress,
			})
			return err
		}},
	}
	before := runtime.NumGoroutine()
	for _, sw := range sweeps {
		for i := 0; i < 4; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			err := sw.run(ctx, func(p Progress) {
				if p.Replayed >= 1024 {
					once.Do(cancel)
				}
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled %s sweep returned %v, want context.Canceled", sw.name, err)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancelled sweeps: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	cfg := DefaultConfig()
	fresh, err := NewFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := replayOnce(t, cfg, tr); !reflect.DeepEqual(want, got) {
		t.Fatalf("recycled replay diverged from fresh after cancelled sweeps:\n got %+v\nwant %+v", got, want)
	}
}

// TestParallelSoak is the race-detector soak of concurrent replay:
// several replays run at once on separate devices, sharing only the
// snapshot templates, the free pool and the trace cache. Run via
// `go test -race ./internal/...`.
func TestParallelSoak(t *testing.T) {
	traces := []string{"ts0", "ads", "lun2"}
	errc := make(chan error, len(traces))
	for _, name := range traces {
		go func(name string) {
			tr, err := cachedTrace(name, 42, parallelDiffScale)
			if err != nil {
				errc <- err
				return
			}
			sim, err := New(DefaultConfig())
			if err != nil {
				errc <- err
				return
			}
			_, err = sim.Run(tr)
			sim.Release()
			errc <- err
		}(name)
	}
	for range traces {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
