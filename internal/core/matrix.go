package core

import (
	"context"
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
		m.Scale = DefaultScale
	}
	if m.Seed == 0 {
		m.Seed = DefaultSeed
	}
	if m.Workers <= 0 {
		m.Workers = runtime.GOMAXPROCS(0)
	}
}

// The trace-synthesis defaults every spec fills when its Seed or Scale
// is zero.
const (
	DefaultSeed  = 42
	DefaultScale = 0.05
)

// traceKey identifies one synthesised trace. Generation is deterministic
// per key, so the result can be cached and shared read-only.
type traceKey struct {
	name  string
	seed  int64
	scale float64
}

// traceCache memoises trace synthesis across RunMatrixContext calls.
// Sweeps (sensitivity, replicate, benchmark loops) call RunMatrixContext
// many times with the same (name, seed, scale) tuples; traces are
// immutable once built, so regenerating them per call is pure waste. The
// cache is LRU-bounded: a full-scale trace holds millions of records, and
// a long multi-scale or multi-seed sweep would otherwise accumulate every
// variant it ever replayed.
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

// RunMatrixContext executes every (trace, scheme, P/E) combination of the
// spec on a fixed pool of spec.Workers goroutines, each cell through
// RunCellContext. Each trace is synthesised at most once per (name,
// seed, scale) — cached across calls — and shared read-only by the
// scheme runs. Results come back sorted by (trace order, P/E, scheme
// order), independent of scheduling.
//
// Cancelling ctx stops every in-flight run within 64 requests and
// returns ctx's error; the partially replayed devices are still returned
// to the snapshot cache's free pool (a recycled device is restored in
// place before reuse, so a partial replay cannot leak state into a later
// job).
func RunMatrixContext(ctx context.Context, spec MatrixSpec) ([]*Result, error) {
	spec.normalize()

	// Warm the trace cache before the fan-out and total the sweep's
	// requests: every trace replays once per (P/E, scheme).
	var totalRequests int
	for _, name := range spec.Traces {
		tr, err := cachedTrace(name, spec.Seed, spec.Scale)
		if err != nil {
			return nil, err
		}
		totalRequests += tr.Len() * len(spec.PEBaselines) * len(spec.Schemes)
	}
	progress := sweepProgress(spec.OnProgress, totalRequests)

	// The cells are the spec's decomposition: the same enumeration a
	// coordinator uses to shard the sweep, so per-cell results land at the
	// same indices either way.
	cells := cellsOf(spec)
	results := make([]*Result, len(cells))
	err := ForEachCell(ctx, spec.Workers, len(cells), func(i int) error {
		cellSpec := spec
		cellSpec.OnProgress = progress()
		var err error
		results[i], err = RunCellContext(ctx, cellSpec, cells[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// sweepProgress folds the Progress of concurrently replayed cells into
// sweep-wide snapshots for report: each call of the returned function
// yields one cell's ProgressFunc, whose per-interval deltas land in
// shared atomics so every callback reports the sweep's combined
// Replayed and GCs against total. SimTime is the reporting cell's device
// clock. With a nil report every cell's ProgressFunc is nil.
func sweepProgress(report ProgressFunc, total int) func() ProgressFunc {
	var replayed, gcs atomic.Int64
	return func() ProgressFunc {
		if report == nil {
			return nil
		}
		var prevReplayed int
		var prevGCs int64
		return func(p Progress) {
			r := replayed.Add(int64(p.Replayed - prevReplayed))
			g := gcs.Add(p.GCs - prevGCs)
			prevReplayed, prevGCs = p.Replayed, p.GCs
			report(Progress{Replayed: int(r), Total: total, SimTime: p.SimTime, GCs: g})
		}
	}
}
