package server

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/core"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// JobState is one point of the job lifecycle. Transitions are strictly
// queued -> running -> {done, failed, cancelled}, except that a queued job
// may move straight to cancelled.
type JobState string

const (
	// StateQueued means the job is waiting in the bounded queue.
	StateQueued JobState = "queued"
	// StateRunning means a worker is replaying the job.
	StateRunning JobState = "running"
	// StateDone means the job finished and its result is available.
	StateDone JobState = "done"
	// StateFailed means the job stopped on an error (or panic).
	StateFailed JobState = "failed"
	// StateCancelled means the job was cancelled — by request, by its
	// timeout, or by shutdown — before completing.
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRequest is the POST /v1/jobs submission body. Kind selects the
// experiment; the remaining fields parameterise it, with zero values
// falling back to the evaluation defaults.
type JobRequest struct {
	// Kind is "run" (one trace through one scheme), "matrix" (a
	// traces x schemes x P/E sweep), "sensitivity" (a device-parameter
	// sweep) or "contention" (the multi-tenant contention study).
	Kind string `json:"kind"`

	// Run parameters.
	Scheme string `json:"scheme,omitempty"`
	Trace  string `json:"trace,omitempty"`
	// QueueDepth > 0 replays closed-loop at that depth instead of
	// open-loop at trace timestamps.
	QueueDepth int `json:"queueDepth,omitempty"`
	PEBaseline int `json:"peBaseline,omitempty"`

	// Matrix / sensitivity parameters.
	Traces      []string `json:"traces,omitempty"`
	Schemes     []string `json:"schemes,omitempty"`
	PEBaselines []int    `json:"peBaselines,omitempty"`
	// Param names the swept device parameter (core.SensitivityParams key).
	Param string `json:"param,omitempty"`
	// ParamValue is the swept value of Param for "cell" jobs: one
	// sensitivity-point cell fixes the parameter at this value.
	ParamValue float64 `json:"paramValue,omitempty"`

	// Shared trace-synthesis parameters.
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`

	// Multi-tenant closed-loop parameters (request schema v3). Tenants
	// replays K tenant streams interleaved onto one device instead of the
	// single Trace; WriteCache puts a DRAM write buffer in front of the
	// device. Both require kind "run" with queueDepth > 0, and both carry
	// omitempty so v2 submissions (which cannot set them) canonicalise —
	// and therefore content-address — exactly as before.
	Tenants    []workload.TenantSpec `json:"tenants,omitempty"`
	WriteCache *cache.Config         `json:"writeCache,omitempty"`

	// Contention-study parameters (request schema v4). Kind "contention"
	// replays every (mix, buffer arm, scheme) cell of the multi-tenant
	// contention study: Mixes lists the tenant compositions (empty means
	// the default evaluation mixes), Schemes the FTLs to rank, QueueDepth
	// the shared closed-loop depth, and CacheBytes the buffered arm's
	// write-cache capacity. Both fields carry omitempty, so v2/v3
	// submissions canonicalise — and content-address — exactly as before.
	Mixes      []core.TenantMix `json:"mixes,omitempty"`
	CacheBytes int64            `json:"cacheBytes,omitempty"`

	// Parallelism is accepted so existing clients keep working, and
	// ignored: every replay is serial. A negative value is still
	// rejected, and the field stays out of the job's content address.
	Parallelism int `json:"parallelism,omitempty"`

	// Timeout caps the job's wall-clock run time (Go duration string,
	// e.g. "2m"). Empty means the server default.
	Timeout string `json:"timeout,omitempty"`
}

// jobFunc executes one validated job under ctx, reporting progress through
// report, and returns the JSON-marshallable result.
type jobFunc func(ctx context.Context, report core.ProgressFunc) (any, error)

// Job is one submitted experiment and its lifecycle state. All mutable
// fields are guarded by the owning Server's mu.
type Job struct {
	ID string
	// Key is the job's content address: the hash of the canonicalised
	// request. Identical submissions share a key, which is what the result
	// cache, the persistent store and the coordinator's ring key on.
	Key string
	// Cached marks a job whose result was served from the result cache (or
	// reloaded from the store by a restarted daemon) without running the
	// simulator.
	Cached    bool
	Kind      string
	Request   JobRequest
	State     JobState
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Progress  core.Progress
	Error     string

	// resultJSON is the marshalled result — the bytes the cache and store
	// hold, served verbatim so repeat submissions are byte-identical.
	resultJSON []byte
	run        jobFunc
	timeout    time.Duration
	cancel     context.CancelFunc
	// watch is closed and replaced on every state/progress update, waking
	// stream subscribers.
	watch chan struct{}
}

// JobView is the JSON shape of a job's status.
type JobView struct {
	ID        string        `json:"id"`
	Key       string        `json:"key,omitempty"`
	Kind      string        `json:"kind"`
	State     JobState      `json:"state"`
	Cached    bool          `json:"cached,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Progress  core.Progress `json:"progress"`
	Frac      float64       `json:"frac"`
	Error     string        `json:"error,omitempty"`
}

// viewLocked snapshots the job for JSON rendering. Callers hold the
// server's mu.
func (j *Job) viewLocked() JobView {
	v := JobView{
		ID:        j.ID,
		Key:       j.Key,
		Kind:      j.Kind,
		State:     j.State,
		Cached:    j.Cached,
		Submitted: j.Submitted,
		Progress:  j.Progress,
		Frac:      j.Progress.Frac(),
		Error:     j.Error,
	}
	if !j.Started.IsZero() {
		t := j.Started
		v.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
	}
	return v
}

// checkFields rejects what the raw request sets but its kind does not
// take: fields of another kind, and combinations the kind forbids. It
// runs before canonicalRequest, which drops such fields (and
// Parallelism) instead of reporting them.
func checkFields(req JobRequest) error {
	if req.Parallelism < 0 {
		return fmt.Errorf("parallelism %d must be >= 0", req.Parallelism)
	}
	if req.Kind != "run" && (len(req.Tenants) > 0 || req.WriteCache != nil) {
		return fmt.Errorf("tenants and writeCache apply only to run jobs, not %q", req.Kind)
	}
	if req.Kind != "contention" && (len(req.Mixes) > 0 || req.CacheBytes != 0) {
		return fmt.Errorf("mixes and cacheBytes apply only to contention jobs, not %q", req.Kind)
	}
	switch req.Kind {
	case "run":
		if len(req.Tenants) > 0 && req.Trace != "" {
			return fmt.Errorf("trace and tenants are mutually exclusive (per-tenant traces go in tenants[].trace)")
		}
		// The v3 extensions ride on the closed-loop engine only: an
		// open-loop replay has no issue gate for the buffer's
		// backpressure or the tenants' QoS shares to act on.
		if (len(req.Tenants) > 0 || req.WriteCache != nil) && req.QueueDepth <= 0 {
			return fmt.Errorf("tenants and writeCache require a closed-loop run (queueDepth > 0)")
		}
	case "cell":
		if req.QueueDepth != 0 {
			return fmt.Errorf("cell jobs are open-loop (queueDepth %d not supported)", req.QueueDepth)
		}
	}
	return nil
}

// validate checks a canonical request. Its defaults are filled, so every
// check sees exactly the parameters the job runs with, and the fields its
// kind does not take are zero.
func validate(c JobRequest) error {
	schemes, traces := c.Schemes, c.Traces
	switch c.Kind {
	case "run", "cell":
		schemes = []string{c.Scheme}
		// A multi-tenant run names its traces per tenant.
		if len(c.Tenants) == 0 {
			traces = []string{c.Trace}
		}
		// Only a cell keeps Param: it fixes one sensitivity point.
		if c.Param != "" {
			if _, err := core.SensitivityCellConfig(c.Param, c.ParamValue); err != nil {
				return err
			}
		}
	case "sensitivity":
		if _, ok := core.SensitivityParams[c.Param]; !ok {
			return fmt.Errorf("unknown sensitivity param %q (have %s)",
				c.Param, strings.Join(core.SensitivityParamNames, ", "))
		}
	case "matrix", "contention":
	default:
		return fmt.Errorf("unknown kind %q (want run, cell, matrix, sensitivity or contention)", c.Kind)
	}
	switch {
	case c.Scale <= 0 || c.Scale > 1:
		return fmt.Errorf("scale %v out of (0, 1]", c.Scale)
	case c.QueueDepth < 0:
		return fmt.Errorf("queueDepth %d must be >= 0", c.QueueDepth)
	case c.CacheBytes < 0:
		return fmt.Errorf("cacheBytes %d must be >= 0", c.CacheBytes)
	}
	for _, pe := range append([]int{c.PEBaseline}, c.PEBaselines...) {
		if pe < 0 {
			return fmt.Errorf("P/E baseline %d must be >= 0", pe)
		}
	}
	for _, s := range schemes {
		if !slices.Contains(core.Schemes(), s) {
			return fmt.Errorf("unknown scheme %q (registered: %v)", s, core.Schemes())
		}
	}
	if err := validateTraces(traces...); err != nil {
		return err
	}
	if err := validateTenants(c.Tenants); err != nil {
		return err
	}
	for _, mix := range c.Mixes {
		if len(mix.Tenants) == 0 {
			return fmt.Errorf("contention mix %q is empty", mix.Name)
		}
		if err := validateTenants(mix.Tenants); err != nil {
			return err
		}
	}
	if c.WriteCache != nil {
		return c.WriteCache.Validate()
	}
	return nil
}

func validateTraces(names ...string) error {
	for _, tr := range names {
		if _, ok := trace.Profiles[tr]; !ok {
			return fmt.Errorf("unknown trace %q (have %v)", tr, trace.ProfileNames())
		}
	}
	return nil
}

// validateTenants checks normalised tenant specs and their traces.
func validateTenants(tenants []workload.TenantSpec) error {
	if err := workload.ValidateTenants(tenants); err != nil {
		return err
	}
	for _, t := range tenants {
		if err := validateTraces(t.Trace); err != nil {
			return err
		}
	}
	return nil
}

// matrixSpec is the sweep spec of a canonical matrix, sensitivity, cell
// or open-loop run request; report, if set, receives its progress.
func matrixSpec(c JobRequest, report core.ProgressFunc) core.MatrixSpec {
	return core.MatrixSpec{
		Traces:      c.Traces,
		Schemes:     c.Schemes,
		PEBaselines: c.PEBaselines,
		Scale:       c.Scale,
		Seed:        c.Seed,
		OnProgress:  report,
	}
}

// contentionSpec is the study spec of a canonical contention request;
// report, if set, receives its progress.
func contentionSpec(c JobRequest, report core.ProgressFunc) core.TenantContentionSpec {
	return core.TenantContentionSpec{
		Mixes:      c.Mixes,
		Schemes:    c.Schemes,
		Depth:      c.QueueDepth,
		CacheBytes: c.CacheBytes,
		Seed:       c.Seed,
		Scale:      c.Scale,
		OnProgress: report,
	}
}

// localJob returns the in-process runner of a validated canonical request.
func localJob(c JobRequest) jobFunc {
	switch c.Kind {
	case "matrix":
		return func(ctx context.Context, report core.ProgressFunc) (any, error) {
			return core.RunMatrixContext(ctx, matrixSpec(c, report))
		}
	case "sensitivity":
		return func(ctx context.Context, report core.ProgressFunc) (any, error) {
			return core.RunSensitivityContext(ctx, c.Param, matrixSpec(c, report))
		}
	case "contention":
		return func(ctx context.Context, report core.ProgressFunc) (any, error) {
			return core.RunTenantContentionContext(ctx, contentionSpec(c, report))
		}
	}
	if c.QueueDepth > 0 {
		return closedLoopJob(c)
	}
	// An open-loop run is a matrix cell without a sensitivity point, so
	// run and cell jobs share the cell runner. A cell's result is
	// bit-identical to the corresponding element of the full sweep; cells
	// with a Param rebuild that sensitivity point's flash configuration.
	return func(ctx context.Context, report core.ProgressFunc) (any, error) {
		spec := matrixSpec(c, report)
		if c.Param != "" {
			fc, err := core.SensitivityCellConfig(c.Param, c.ParamValue)
			if err != nil {
				return nil, err
			}
			spec.Flash = &fc
		}
		return core.RunCellContext(ctx, spec, core.MatrixCell{Trace: c.Trace, Scheme: c.Scheme, PE: c.PEBaseline})
	}
}

// closedLoopJob runs a closed-loop run job: one trace, or the request's
// tenants, at its queue depth, optionally behind a write cache.
func closedLoopJob(c JobRequest) jobFunc {
	return func(ctx context.Context, report core.ProgressFunc) (any, error) {
		spec := core.ClosedLoopSpec{
			Depth:      c.QueueDepth,
			Tenants:    c.Tenants,
			WriteCache: c.WriteCache,
			Seed:       c.Seed,
			Scale:      c.Scale,
		}
		if len(c.Tenants) == 0 {
			// The bounded trace cache shares one immutable instance
			// across concurrent jobs replaying the same workload.
			tr, err := core.SyntheticTrace(c.Trace, c.Seed, c.Scale)
			if err != nil {
				return nil, err
			}
			spec.Trace = tr
		}
		cfg := core.DefaultConfig()
		cfg.Scheme = c.Scheme
		if c.PEBaseline > 0 {
			cfg.Flash.PEBaseline = c.PEBaseline
		}
		sim, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		defer sim.Release()
		sim.OnProgress(0, report)
		res, err := sim.RunClosedLoopSpec(ctx, spec)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}
