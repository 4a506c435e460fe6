package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"ipusim/internal/core"
	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/metrics"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// simScale is the trace scale `experiments` runs at by default.
const simScale = 0.05

// peLevels are the Fig. 13/14 device use stages of `experiments -pesweep`.
var peLevels = []int{1000, 2000, 4000, 8000}

// Trace content varies with the seed, and so does the work a cycle does:
// one tenants study ran 15% faster at one seed than at another. A run
// therefore rotates its cycles over several trace seeds derived from the
// workload seed, starting with the workload seed itself, so its figures
// average over them; each seed recurs, so every cycle is checked against
// an earlier one at the same seed.
const (
	figsSeeds    = 3 // one per cold regeneration, in turn
	tenantsSeeds = 5 // one study each per round
	seedStride   = 1_000_003
)

// traceSeeds are the n trace seeds a run derives from its workload seed.
func traceSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed + int64(i)*seedStride
	}
	return out
}

// cycle is one cold start of a simulator workload: set-up from empty
// caches, then the timed phase.
type cycle struct {
	setup, timed time.Duration
	requests     int64
	cellLat      []time.Duration
	// slots is the pools' wall time times their worker count: the base of
	// worker utilisation.
	slots   time.Duration
	results []*core.Result
	checks  []check
}

// check is one output check a cycle carries: the digest of the Results it
// simulated at one trace seed, and of the same Results masked as a traced
// run changes them.
type check struct {
	seed           int64
	digest, masked string
	ops            int
}

// merge joins cycles run back to back into one.
func merge(cs []cycle) cycle {
	var m cycle
	for _, c := range cs {
		m.setup += c.setup
		m.timed += c.timed
		m.requests += c.requests
		m.cellLat = append(m.cellLat, c.cellLat...)
		m.slots += c.slots
		m.results = append(m.results, c.results...)
		m.checks = append(m.checks, c.checks...)
	}
	return m
}

// coldStart empties every cache core keeps between runs and collects the
// garbage they held, so each cycle starts as a fresh process would.
func coldStart() {
	core.ResetTraceCache()
	core.ResetSnapshotCache()
	runtime.GC()
}

// synthTraces synthesises traces into core's trace cache, as the first
// matrix or study call would.
func synthTraces(tr *tracer, keys []traceKey) error {
	for _, k := range keys {
		var start int64
		if tr != nil {
			start = tr.now()
		}
		t, err := core.SyntheticTrace(k.name, k.seed, k.scale)
		if err != nil {
			return err
		}
		if tr != nil {
			tr.synth(start, tr.now(), t.Len())
		}
	}
	return nil
}

type traceKey struct {
	name  string
	seed  int64
	scale float64
}

// matrixTraces are the six evaluation traces at one seed and scale.
func matrixTraces(seed int64, scale float64) []traceKey {
	var keys []traceKey
	for _, name := range trace.ProfileNames() {
		keys = append(keys, traceKey{name, seed, scale})
	}
	return keys
}

// buildTemplates builds the default-geometry device template of every
// scheme into core's snapshot cache, on as many workers as a sweep uses.
func buildTemplates(ctx context.Context, schemes []string) error {
	_, err := runPool(ctx, len(schemes), nil, func(int) string { return "" }, func(_ context.Context, i int) (int64, error) {
		cfg := core.DefaultConfig()
		cfg.Scheme = schemes[i]
		sim, err := core.New(cfg)
		if err != nil {
			return 0, err
		}
		sim.Release()
		return 0, nil
	})
	return err
}

// runPool runs cells 0..n-1 on GOMAXPROCS goroutines, dispatched in index
// order as core's sweeps dispatch them, and returns each cell's latency.
// With a tracer each cell becomes a span. run returns the simulated
// requests the cell replayed.
func runPool(ctx context.Context, n int, tr *tracer, name func(int) string, run func(context.Context, int) (int64, error)) (poolRun, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	out := poolRun{lat: make([]time.Duration, n), workers: workers}
	reqs := make([]int64, n)
	errs := make([]error, n)
	next := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := time.Now()
				if tr != nil {
					tr.beginCell(name(i))
				}
				reqs[i], errs[i] = run(ctx, i)
				if tr != nil {
					tr.endCell()
				}
				out.lat[i] = time.Since(t)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	out.wall = time.Since(start)
	for i, err := range errs {
		if err != nil {
			return out, err
		}
		out.requests += reqs[i]
	}
	return out, nil
}

// poolRun is the outcome of one runPool call.
type poolRun struct {
	lat      []time.Duration
	wall     time.Duration
	workers  int
	requests int64
}

// runMatrix runs every cell of a matrix spec through core.RunCellContext,
// the unit core's RunMatrixContext and a cluster coordinator both run.
func runMatrix(ctx context.Context, spec core.MatrixSpec, tr *tracer) ([]*core.Result, poolRun, error) {
	cells := core.Cells(spec)
	results := make([]*core.Result, len(cells))
	pr, err := runPool(ctx, len(cells), tr, func(i int) string {
		c := cells[i]
		return fmt.Sprintf("cell %s/%s/pe%d", c.Trace, c.Scheme, c.PE)
	}, func(ctx context.Context, i int) (int64, error) {
		r, err := core.RunCellContext(ctx, spec, cells[i])
		if err != nil {
			return 0, err
		}
		results[i] = r
		return int64(r.Requests), nil
	})
	return results, pr, err
}

// render writes a table where the user would see it; the benchmark pays
// the formatting but discards the text.
func render(tabs ...*metrics.Table) error {
	for _, t := range tabs {
		if err := t.Render(io.Discard); err != nil {
			return err
		}
	}
	return nil
}

// figsSetup synthesises the six traces and builds the five default-P/E
// templates into empty caches.
func figsSetup(ctx context.Context, seed int64, schemes []string, tr *tracer) error {
	if err := synthTraces(tr, matrixTraces(seed, simScale)); err != nil {
		return err
	}
	return buildTemplates(ctx, schemes)
}

// figsCycle is one `experiments -pesweep` regeneration from empty caches: set-up
// synthesises the six traces and builds the five default-P/E templates;
// the timed phase renders Tables 1-3 and Fig. 2, replays the open-loop
// matrix with every Fig. 5-12 table, then the P/E sweep for Figs. 13/14.
func figsCycle(ctx context.Context, seed int64, schemes []string, tr *tracer) (cycle, error) {
	var c cycle
	if tr != nil {
		tr.begin("setup")
	}
	t0 := time.Now()
	if err := figsSetup(ctx, seed, schemes, tr); err != nil {
		return c, err
	}
	c.setup = time.Since(t0)
	if tr != nil {
		tr.end()
		tr.begin("timed")
		defer tr.end()
	}

	t1 := time.Now()
	fc := flash.DefaultConfig()
	fc.PreFillMLC = true
	em := errmodel.Default()
	t1tab, err := core.Table1(seed, simScale)
	if err != nil {
		return c, err
	}
	t3tab, err := core.Table3(seed, simScale)
	if err != nil {
		return c, err
	}
	if err := render(core.Table2(&fc), t1tab, t3tab, core.Fig2(&em, peLevels)); err != nil {
		return c, err
	}

	spec := core.MatrixSpec{Schemes: schemes, Scale: simScale, Seed: seed, Flash: &fc}
	open, pr, err := runMatrix(ctx, spec, tr)
	if err != nil {
		return c, err
	}
	c.addPool(pr)
	rs := core.NewResultSet(open)
	if err := render(core.Fig5(rs), core.Fig6(rs), core.Fig7(rs), core.Fig8(rs),
		core.Fig9(rs), core.Fig10(rs), core.Fig11(rs), core.Fig12(rs),
		core.SchemeMatrix(rs), core.Lifetime(rs, fc.SLCBlocks(), fc.MLCBlocks())); err != nil {
		return c, err
	}

	sweepSpec := spec
	sweepSpec.PEBaselines = peLevels
	sweep, pr, err := runMatrix(ctx, sweepSpec, tr)
	if err != nil {
		return c, err
	}
	c.addPool(pr)
	srs := core.NewResultSet(sweep)
	if err := render(core.Fig13(srs), core.Fig14(srs)); err != nil {
		return c, err
	}
	c.timed = time.Since(t1)
	c.results = append(open, sweep...)
	c.checks = []check{{seed, digest(c.results), maskedDigest(c.results), len(c.results)}}
	return c, nil
}

func (c *cycle) addPool(pr poolRun) {
	c.requests += pr.requests
	c.cellLat = append(c.cellLat, pr.lat...)
	c.slots += pr.wall * time.Duration(pr.workers)
}

// tenantTraces are the per-tenant traces of the default contention mixes.
func tenantTraces(seed int64) []traceKey {
	var keys []traceKey
	for _, mix := range core.DefaultTenantMixes() {
		for _, t := range workload.NormalizeTenants(mix.Tenants, core.DefaultTenantTrace, seed, simScale) {
			keys = append(keys, traceKey{t.Trace, t.Seed, t.Scale})
		}
	}
	return keys
}

// tenantsSetup is the contention study's set-up into empty caches: the
// tenant traces at every seed and the five templates.
func tenantsSetup(ctx context.Context, seeds []int64, schemes []string, tr *tracer) error {
	if tr != nil {
		tr.begin("setup")
		defer tr.end()
	}
	for _, seed := range seeds {
		if err := synthTraces(tr, tenantTraces(seed)); err != nil {
			return err
		}
	}
	return buildTemplates(ctx, schemes)
}

// tenantsStudy runs the contention study of `experiments -tenants` once,
// on warm caches: both default mixes, write buffer off and on, every
// scheme, through core.RunContentionCellContext.
func tenantsStudy(ctx context.Context, seed int64, schemes []string, tr *tracer) (cycle, error) {
	var c cycle
	if tr != nil {
		tr.begin("timed")
		defer tr.end()
	}
	spec := core.TenantContentionSpec{Schemes: schemes, Seed: seed, Scale: simScale}
	cells, err := core.ContentionCells(spec)
	if err != nil {
		return c, err
	}
	rows := make([]core.ContentionRow, len(cells))
	t0 := time.Now()
	pr, err := runPool(ctx, len(cells), tr, func(i int) string {
		cl := cells[i]
		return fmt.Sprintf("cell %s/%s/buffered=%t", cl.Mix.Name, cl.Scheme, cl.Buffered)
	}, func(ctx context.Context, i int) (int64, error) {
		row, err := core.RunContentionCellContext(ctx, spec, cells[i])
		if err != nil {
			return 0, err
		}
		rows[i] = row
		return int64(row.Result.Requests), nil
	})
	if err != nil {
		return c, err
	}
	if err := render(core.TenantContention(rows)); err != nil {
		return c, err
	}
	c.timed = time.Since(t0)
	c.addPool(pr)
	for _, r := range rows {
		c.results = append(c.results, r.Result)
	}
	c.checks = []check{{seed, digest(rows), maskedDigest(c.results), len(rows)}}
	return c, nil
}
