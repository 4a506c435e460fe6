package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ipusim/internal/flash"
	"ipusim/internal/trace"
)

// MatrixSpec describes a sweep over traces, schemes and P/E baselines —
// the full evaluation of the paper is one MatrixSpec.
type MatrixSpec struct {
	// Traces names the workload profiles to synthesise (trace.Profiles
	// keys). Empty means all six, in Table 3 order.
	Traces []string
	// Schemes lists the FTLs to compare. Empty means all three.
	Schemes []string
	// PEBaselines lists the device use stages (Figs. 13–14). Empty means
	// the Table 2 default only.
	PEBaselines []int
	// Scale shrinks trace request counts; (0,1], default 0.05.
	Scale float64
	// Seed drives trace synthesis; runs are deterministic per seed.
	Seed int64
	// Flash is the geometry; zero value means flash.DefaultConfig.
	Flash *flash.Config
	// Workers bounds concurrent runs; 0 means GOMAXPROCS.
	Workers int
	// OnProgress, if set, receives aggregated Progress snapshots while the
	// sweep runs: Replayed/Total count requests across every run in the
	// sweep combined, GCs accumulates garbage collections across runs, and
	// SimTime is the device clock of the reporting run. The callback is
	// invoked concurrently from worker goroutines and must be safe for
	// concurrent use.
	OnProgress ProgressFunc
	// ProgressEvery is the per-run callback granularity in requests;
	// non-positive means DefaultProgressEvery.
	ProgressEvery int
}

// normalize fills defaults.
func (m *MatrixSpec) normalize() {
	if len(m.Traces) == 0 {
		m.Traces = trace.ProfileNames()
	}
	if len(m.Schemes) == 0 {
		m.Schemes = append([]string(nil), SchemeNames...)
	}
	if len(m.PEBaselines) == 0 {
		m.PEBaselines = []int{0} // sentinel: use config default
	}
	if m.Scale == 0 {
		m.Scale = 0.05
	}
	if m.Seed == 0 {
		m.Seed = 42
	}
	if m.Workers <= 0 {
		m.Workers = runtime.GOMAXPROCS(0)
	}
}

// traceKey identifies one synthesised trace. Generation is deterministic
// per key, so the result can be cached and shared read-only.
type traceKey struct {
	name  string
	seed  int64
	scale float64
}

// traceCache memoises trace synthesis across RunMatrix calls. Sweeps
// (sensitivity, replicate, benchmark loops) call RunMatrix many times with
// the same (name, seed, scale) tuples; traces are immutable once built, so
// regenerating them per call is pure waste. The cache is LRU-bounded: a
// full-scale trace holds millions of records, and a long multi-scale or
// multi-seed sweep would otherwise accumulate every variant it ever
// replayed.
var (
	traceCacheMu    sync.Mutex
	traceCacheMap   = map[traceKey]*traceCacheEntry{}
	traceCacheClock uint64
	traceCacheCap   = 24
)

type traceCacheEntry struct {
	tr      *trace.Trace
	lastUse uint64
}

// ResetTraceCache drops every cached synthesised trace, releasing their
// memory. Long-running drivers call it between sweep phases that use
// disjoint (seed, scale) settings.
func ResetTraceCache() {
	traceCacheMu.Lock()
	traceCacheMap = map[traceKey]*traceCacheEntry{}
	traceCacheMu.Unlock()
}

// SyntheticTrace returns the synthesised trace for a profile through the
// bounded trace cache: repeated requests for the same (name, seed, scale)
// share one immutable instance. Long-running services use it so concurrent
// jobs over the same workload do not regenerate millions of records each.
func SyntheticTrace(name string, seed int64, scale float64) (*trace.Trace, error) {
	return cachedTrace(name, seed, scale)
}

// cachedTrace returns the synthesised trace for a profile, generating and
// caching it on first use and evicting the least recently used trace
// beyond the cache cap.
func cachedTrace(name string, seed int64, scale float64) (*trace.Trace, error) {
	key := traceKey{name, seed, scale}
	traceCacheMu.Lock()
	traceCacheClock++
	if e, ok := traceCacheMap[key]; ok {
		e.lastUse = traceCacheClock
		traceCacheMu.Unlock()
		return e.tr, nil
	}
	traceCacheMu.Unlock()

	p, ok := trace.Profiles[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown trace profile %q", name)
	}
	tr, err := trace.Generate(p, seed, scale)
	if err != nil {
		return nil, err
	}

	traceCacheMu.Lock()
	defer traceCacheMu.Unlock()
	traceCacheClock++
	if e, ok := traceCacheMap[key]; ok {
		// Another goroutine generated the same trace concurrently; keep
		// the cached one so all jobs share a single instance.
		e.lastUse = traceCacheClock
		return e.tr, nil
	}
	traceCacheMap[key] = &traceCacheEntry{tr: tr, lastUse: traceCacheClock}
	for len(traceCacheMap) > traceCacheCap {
		var victim traceKey
		var oldest uint64
		first := true
		for k, e := range traceCacheMap {
			if first || e.lastUse < oldest {
				victim, oldest, first = k, e.lastUse, false
			}
		}
		delete(traceCacheMap, victim)
	}
	return tr, nil
}

// RunMatrix executes every (trace, scheme, P/E) combination of the spec.
// It is RunMatrixContext under context.Background().
func RunMatrix(spec MatrixSpec) ([]*Result, error) {
	return RunMatrixContext(context.Background(), spec)
}

// RunMatrixContext executes every (trace, scheme, P/E) combination of the
// spec on a fixed pool of spec.Workers goroutines. Each trace is
// synthesised at most once per (name, seed, scale) — cached across calls —
// and shared read-only by the scheme runs. Results come back sorted by
// (trace order, P/E, scheme order), independent of scheduling.
//
// Cancelling ctx stops every in-flight run within 64 requests and
// returns ctx's error; the partially replayed devices are still returned
// to the snapshot cache's free pool (a recycled device is restored in
// place before reuse, so a partial replay cannot leak state into a later
// job).
func RunMatrixContext(ctx context.Context, spec MatrixSpec) ([]*Result, error) {
	spec.normalize()

	traces := make(map[string]*trace.Trace, len(spec.Traces))
	for _, name := range spec.Traces {
		tr, err := cachedTrace(name, spec.Seed, spec.Scale)
		if err != nil {
			return nil, err
		}
		traces[name] = tr
	}

	// The job list is the spec's cell decomposition: the same enumeration a
	// coordinator uses to shard the sweep, so per-cell results land at the
	// same indices either way.
	jobs := cellsOf(spec)
	var totalRequests int64
	for _, c := range jobs {
		totalRequests += int64(traces[c.Trace].Len())
	}

	// Aggregated sweep progress: every run's per-interval deltas land in
	// shared atomics, and each callback reports the sweep-wide totals.
	var replayed, gcs atomic.Int64

	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	run := func(i int) {
		j := jobs[i]
		cfg := DefaultConfig()
		if spec.Flash != nil {
			cfg.Flash = *spec.Flash
		}
		if j.PE > 0 {
			cfg.Flash.PEBaseline = j.PE
		}
		cfg.Scheme = j.Scheme
		sim, err := New(cfg)
		if err != nil {
			errs[i] = err
			return
		}
		if spec.OnProgress != nil {
			var prevReplayed int
			var prevGCs int64
			sim.OnProgress(spec.ProgressEvery, func(p Progress) {
				r := replayed.Add(int64(p.Replayed - prevReplayed))
				g := gcs.Add(p.GCs - prevGCs)
				prevReplayed, prevGCs = p.Replayed, p.GCs
				spec.OnProgress(Progress{
					Replayed: int(r),
					Total:    int(totalRequests),
					SimTime:  p.SimTime,
					GCs:      g,
				})
			})
		}
		res, err := sim.RunContext(ctx, traces[j.Trace])
		if err != nil {
			// A cancelled run stopped between requests, so its device is
			// structurally consistent and can rejoin the free pool; any
			// other failure drops the device on the floor.
			if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
				sim.Release()
			}
			errs[i] = err
			return
		}
		// The Result holds only values, so the device can be recycled: the
		// snapshot cache restores it in place for a later same-key job
		// instead of cutting a fresh clone.
		sim.Release()
		res.PEBaseline = cfg.Flash.PEBaseline
		results[i] = res
	}

	workers := spec.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// jobs were generated in deterministic (trace, P/E, scheme) order and
	// results are indexed by job, so the slice is already deterministic.
	return results, nil
}
