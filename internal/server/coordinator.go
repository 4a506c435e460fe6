package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/core"
)

// coordinator shards matrix, sensitivity and contention jobs across a
// fleet of worker daemons. A sweep is decomposed into its cells
// (core.Cells, or core.ContentionCells for contention studies); each
// cell becomes a "cell" (or multi-tenant "run") sub-job placed on a
// worker by consistent hashing on the sub-job's content-addressed key,
// so the same cell always lands on the same worker and its local result
// cache stays hot.
// Per-cell rows stream back as workers finish and are aggregated into
// the same response shape a single daemon produces. A worker that fails
// is removed from the ring (remapping only ~1/N of the keyspace); its
// cells retry on the new owner and, when no worker can serve them, fall
// back to in-process execution — a sweep completes even with the whole
// fleet down. A worker that answers 400 on submit parsed the sub-job and
// refused it (a version-skewed worker): it stays in the ring and the cell
// runs in-process.
type coordinator struct {
	srv    *Server
	client *http.Client

	mu    sync.Mutex
	ring  *ring
	fleet []string // configured workers, for /v1/cluster
	alive map[string]bool

	remoteCells   atomic.Uint64
	fallbackCells atomic.Uint64
}

func newCoordinator(s *Server, urls []string) *coordinator {
	c := &coordinator{
		srv:    s,
		client: &http.Client{},
		ring:   newRing(0, urls...),
		fleet:  append([]string(nil), urls...),
		alive:  map[string]bool{},
	}
	for _, u := range urls {
		c.alive[u] = true
	}
	return c
}

// pick returns the ring owner of a key, or "" when no worker is alive.
func (c *coordinator) pick(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.lookup(key)
}

// markDead drops a failed worker from the ring: future cells reroute to
// the survivors, and only the dead worker's share of keys remaps.
func (c *coordinator) markDead(node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.alive[node] {
		c.alive[node] = false
		c.ring.remove(node)
	}
}

// ClusterView is the GET /v1/cluster payload.
type ClusterView struct {
	Coordinator   bool            `json:"coordinator"`
	Workers       []string        `json:"workers,omitempty"`
	Alive         map[string]bool `json:"alive,omitempty"`
	RemoteCells   uint64          `json:"remoteCells"`
	FallbackCells uint64          `json:"fallbackCells"`
}

func (c *coordinator) view() ClusterView {
	c.mu.Lock()
	alive := make(map[string]bool, len(c.alive))
	for k, v := range c.alive {
		alive[k] = v
	}
	c.mu.Unlock()
	return ClusterView{
		Coordinator:   true,
		Workers:       append([]string(nil), c.fleet...),
		Alive:         alive,
		RemoteCells:   c.remoteCells.Load(),
		FallbackCells: c.fallbackCells.Load(),
	}
}

// job returns the sharded runner of a validated canonical matrix,
// sensitivity or contention request; the sub-jobs inherit its explicit
// parameters.
func (c *coordinator) job(req JobRequest) jobFunc {
	return func(ctx context.Context, report core.ProgressFunc) (any, error) {
		switch req.Kind {
		case "matrix":
			return c.runMatrix(ctx, req, report)
		case "sensitivity":
			return c.runSensitivity(ctx, req, report)
		case "contention":
			return c.runContention(ctx, req, report)
		}
		return nil, fmt.Errorf("kind %q is not shardable", req.Kind)
	}
}

// runContention shards the multi-tenant contention study: every (mix,
// buffer arm, scheme) cell travels as an ordinary v3 closed-loop "run"
// sub-job — multi-tenant, optionally write-cached — which every worker
// already executes, so contention studies scale over a fleet without a
// worker-side upgrade. Rows reassemble in the study's deterministic
// enumeration order, bit-identical to core.RunTenantContentionContext.
func (c *coordinator) runContention(ctx context.Context, req JobRequest, report core.ProgressFunc) (any, error) {
	spec := contentionSpec(req, nil)
	cells, err := core.ContentionCells(spec)
	if err != nil {
		return nil, err
	}
	onDone := cellsDone(report, len(cells))
	rows := make([]core.ContentionRow, len(cells))
	err = core.ForEachCell(ctx, c.workers(), len(cells), func(i int) error {
		var err error
		rows[i], err = c.runContentionCell(ctx, spec, cells[i])
		if err == nil {
			onDone()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// runContentionCell executes one contention cell as a "run" sub-job
// through place.
func (c *coordinator) runContentionCell(ctx context.Context, spec core.TenantContentionSpec, cell core.ContentionCell) (core.ContentionRow, error) {
	sub := JobRequest{
		Kind:       "run",
		Scheme:     cell.Scheme,
		QueueDepth: spec.Depth,
		Scale:      spec.Scale,
		Seed:       spec.Seed,
		Tenants:    cell.Mix.Tenants,
	}
	if cell.Buffered {
		sub.WriteCache = &cache.Config{CapacityBytes: spec.CacheBytes}
	}
	res, err := c.place(ctx, sub, spec.Scale, func() (*core.Result, error) {
		row, err := core.RunContentionCellContext(ctx, spec, cell)
		return row.Result, err
	})
	if err != nil {
		return core.ContentionRow{}, err
	}
	return core.ContentionRow{Mix: cell.Mix.Name, Scheme: cell.Scheme, Buffered: cell.Buffered, Result: res}, nil
}

// runMatrix shards one matrix sweep and reassembles the results in cell
// order — the exact slice core.RunMatrixContext would return.
func (c *coordinator) runMatrix(ctx context.Context, req JobRequest, report core.ProgressFunc) (any, error) {
	spec := matrixSpec(req, nil)
	cells := core.Cells(spec)
	return c.runCells(ctx, spec, cells, "", 0, cellsDone(report, len(cells)))
}

// runSensitivity shards one sensitivity sweep point by point and renders
// the same table a single daemon produces.
func (c *coordinator) runSensitivity(ctx context.Context, req JobRequest, report core.ProgressFunc) (any, error) {
	values := core.SensitivityParams[req.Param]
	base := matrixSpec(req, nil)
	pointSpecs := make([]core.MatrixSpec, len(values))
	pointCells := make([][]core.MatrixCell, len(values))
	total := 0
	for i, v := range values {
		ps, err := core.SensitivityPointSpec(base, req.Param, v)
		if err != nil {
			return nil, err
		}
		pointSpecs[i] = ps
		pointCells[i] = core.Cells(ps)
		total += len(pointCells[i])
	}
	onDone := cellsDone(report, total)
	perPoint := make([][]*core.Result, len(values))
	for i := range values {
		rs, err := c.runCells(ctx, pointSpecs[i], pointCells[i], req.Param, values[i], onDone)
		if err != nil {
			return nil, err
		}
		perPoint[i] = rs
	}
	return core.SensitivityTable(req.Param, values, perPoint), nil
}

// runCells fans the cells out over the shared sweep pool, streaming each
// completed row into its slot; onDone fires per completed cell.
func (c *coordinator) runCells(ctx context.Context, spec core.MatrixSpec, cells []core.MatrixCell, param string, value float64, onDone func()) ([]*core.Result, error) {
	results := make([]*core.Result, len(cells))
	err := core.ForEachCell(ctx, c.workers(), len(cells), func(i int) error {
		var err error
		results[i], err = c.runCell(ctx, spec, cells[i], param, value)
		if err == nil {
			onDone()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runCell executes one matrix cell as a "cell" sub-job through place.
func (c *coordinator) runCell(ctx context.Context, spec core.MatrixSpec, cell core.MatrixCell, param string, value float64) (*core.Result, error) {
	sub := JobRequest{
		Kind:       "cell",
		Trace:      cell.Trace,
		Scheme:     cell.Scheme,
		PEBaseline: cell.PE,
		Scale:      spec.Scale,
		Seed:       spec.Seed,
		Param:      param,
		ParamValue: value,
	}
	return c.place(ctx, sub, spec.Scale, func() (*core.Result, error) {
		return core.RunCellContext(ctx, spec, cell)
	})
}

// cellsDone returns the per-cell completion callback of a sharded sweep:
// each call reports one more of total cells done to report, if set.
func cellsDone(report core.ProgressFunc, total int) func() {
	var done atomic.Int64
	return func() {
		n := done.Add(1)
		if report != nil {
			report(core.Progress{Replayed: int(n), Total: total})
		}
	}
}

// workers sizes a sharded sweep's pool: GOMAXPROCS, or two in-flight
// cells per live worker when that is more.
func (c *coordinator) workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return max(runtime.GOMAXPROCS(0), 2*c.ring.size())
}

// errRefused reports a worker's 400 on submit: a job error, not a worker
// fault.
var errRefused = errors.New("sub-job refused")

// place runs one sub-job: on the ring owner of its key, then once more on
// the post-failure owner, then in-process through local, so a sweep
// completes even with the whole fleet down. A refused sub-job goes
// straight to local and leaves the worker alive.
func (c *coordinator) place(ctx context.Context, sub JobRequest, scale float64, local func() (*core.Result, error)) (*core.Result, error) {
	// Placement hashes the sub-job's content address — the same key the
	// worker's own result cache uses — so repeated sweeps hit warm caches.
	key := jobKey(sub, scale)
	for attempt := 0; attempt < 2; attempt++ {
		node := c.pick(key)
		if node == "" {
			break
		}
		res, err := c.dispatch(ctx, node, sub)
		if err == nil {
			c.remoteCells.Add(1)
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, errRefused) {
			break
		}
		c.markDead(node)
	}
	c.fallbackCells.Add(1)
	return local()
}

// dispatch submits a cell sub-job to one worker and polls its result.
// A 429 (worker queue full) backs off and resubmits, a 400 returns
// errRefused, and any other transport or server error is returned to the
// caller for rerouting.
func (c *coordinator) dispatch(ctx context.Context, node string, req JobRequest) (*core.Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var view JobView
	for {
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		httpReq.Header.Set("Content-Type", "application/json")
		resp, err := c.client.Do(httpReq)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Alive but saturated: back off and resubmit.
			drain(resp)
			if err := sleepCtx(ctx, 25*time.Millisecond); err != nil {
				return nil, err
			}
			continue
		}
		if resp.StatusCode == http.StatusBadRequest {
			drain(resp)
			return nil, fmt.Errorf("worker %s: %w", node, errRefused)
		}
		if resp.StatusCode != http.StatusAccepted {
			drain(resp)
			return nil, fmt.Errorf("worker %s: submit HTTP %d", node, resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		drain(resp)
		if err != nil {
			return nil, err
		}
		break
	}
	for {
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/jobs/"+view.ID+"/result", nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.client.Do(httpReq)
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var out struct {
				Result *core.Result `json:"result"`
			}
			err := json.NewDecoder(resp.Body).Decode(&out)
			drain(resp)
			if err != nil {
				return nil, err
			}
			if out.Result == nil {
				return nil, fmt.Errorf("worker %s: job %s returned no result", node, view.ID)
			}
			return out.Result, nil
		case http.StatusAccepted:
			// Still queued or running on the worker.
			drain(resp)
			if err := sleepCtx(ctx, 5*time.Millisecond); err != nil {
				return nil, err
			}
		default:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			drain(resp)
			return nil, fmt.Errorf("worker %s: job %s: HTTP %d: %s",
				node, view.ID, resp.StatusCode, bytes.TrimSpace(msg))
		}
	}
}

// drain consumes and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// sleepCtx sleeps d or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
