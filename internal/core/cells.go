package core

import (
	"context"
	"errors"
	"sync"
)

// MatrixCell names one (trace, scheme, P/E) coordinate of a MatrixSpec.
// A cell is the unit of distribution: its replay depends only on the
// spec's (seed, scale, flash config) and the cell coordinates, so the
// same cell run anywhere — in-process, on another daemon — produces a
// bit-identical Result.
type MatrixCell struct {
	Trace  string
	Scheme string
	// PE is the P/E-baseline override; 0 means the config default.
	PE int
}

// Cells decomposes the spec into its cells, in the exact order
// RunMatrixContext returns their results: (trace order, P/E, scheme
// order). A coordinator that runs the cells independently and places
// each result at its cell's index reassembles RunMatrixContext's output.
func Cells(spec MatrixSpec) []MatrixCell {
	spec.normalize()
	return cellsOf(spec)
}

// cellsOf enumerates the cells of an already-normalized spec.
func cellsOf(spec MatrixSpec) []MatrixCell {
	cells := make([]MatrixCell, 0, len(spec.Traces)*len(spec.PEBaselines)*len(spec.Schemes))
	for _, tr := range spec.Traces {
		for _, pe := range spec.PEBaselines {
			for _, sc := range spec.Schemes {
				cells = append(cells, MatrixCell{Trace: tr, Scheme: sc, PE: pe})
			}
		}
	}
	return cells
}

// RunCellContext executes one cell of the spec — the same configuration,
// trace synthesis and replay a RunMatrixContext worker would perform for
// that cell — and returns its Result. The spec supplies seed, scale and
// the optional flash override; the cell supplies the coordinates. The
// result is bit-identical to the corresponding element of the full
// matrix, which is what makes cells safe to farm out and memoise.
func RunCellContext(ctx context.Context, spec MatrixSpec, cell MatrixCell) (*Result, error) {
	spec.normalize()
	tr, err := cachedTrace(cell.Trace, spec.Seed, spec.Scale)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig()
	if spec.Flash != nil {
		cfg.Flash = *spec.Flash
	}
	if cell.PE > 0 {
		cfg.Flash.PEBaseline = cell.PE
	}
	cfg.Scheme = cell.Scheme
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if spec.OnProgress != nil {
		sim.OnProgress(spec.ProgressEvery, spec.OnProgress)
	}
	res, err := sim.RunContext(ctx, tr)
	if err != nil {
		// A cancelled replay stopped between requests, so the device is
		// consistent and can rejoin the snapshot cache's free pool.
		if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
			sim.Release()
		}
		return nil, err
	}
	sim.Release()
	res.PEBaseline = cfg.Flash.PEBaseline
	return res, nil
}

// ForEachCell runs run(i) for every i in [0, n) on min(workers, n)
// goroutines (at least one when n > 0) and is the one worker pool every
// sweep shares. Each index is handed to exactly one call, so run may
// store its result at index i without locking. A failing cell does not
// stop the others. Once ctx is done no further index is dispatched;
// ForEachCell joins every worker before it returns, then returns ctx's
// error if ctx is done, and otherwise the error of the lowest failing
// index.
func ForEachCell(ctx context.Context, workers, n int, run func(i int) error) error {
	workers = min(workers, n)
	if workers < 1 && n > 0 {
		workers = 1
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = run(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
