package server

import (
	"context"
	"fmt"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/core"
	"ipusim/internal/flash"
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

// compile validates the request and builds its executable jobFunc.
// Validation happens at submit time so a bad request fails with 400
// instead of occupying a queue slot and failing later.
func compile(req JobRequest, defaultScale float64) (jobFunc, error) {
	if req.Scale == 0 {
		req.Scale = defaultScale
	}
	if req.Scale <= 0 || req.Scale > 1 {
		return nil, fmt.Errorf("scale %v out of (0, 1]", req.Scale)
	}
	if req.Seed == 0 {
		req.Seed = 42
	}
	if req.Parallelism < 0 {
		return nil, fmt.Errorf("parallelism %d must be >= 0", req.Parallelism)
	}
	if req.Kind != "run" && (len(req.Tenants) > 0 || req.WriteCache != nil) {
		return nil, fmt.Errorf("tenants and writeCache apply only to run jobs, not %q", req.Kind)
	}
	if req.Kind != "contention" && (len(req.Mixes) > 0 || req.CacheBytes != 0) {
		return nil, fmt.Errorf("mixes and cacheBytes apply only to contention jobs, not %q", req.Kind)
	}
	switch req.Kind {
	case "run":
		return compileRun(req)
	case "cell":
		return compileCell(req)
	case "matrix":
		return compileMatrix(req)
	case "sensitivity":
		return compileSensitivity(req)
	case "contention":
		return compileContention(req)
	default:
		return nil, fmt.Errorf("unknown kind %q (want run, cell, matrix, sensitivity or contention)", req.Kind)
	}
}

// knownScheme reports whether name is in the scheme registry.
func knownScheme(name string) bool {
	for _, s := range core.Schemes() {
		if s == name {
			return true
		}
	}
	return false
}

func validateSchemes(names []string) error {
	for _, s := range names {
		if !knownScheme(s) {
			return fmt.Errorf("unknown scheme %q (registered: %v)", s, core.Schemes())
		}
	}
	return nil
}

func validateTraces(names []string) error {
	for _, tr := range names {
		if _, ok := trace.Profiles[tr]; !ok {
			return fmt.Errorf("unknown trace %q (have %v)", tr, trace.ProfileNames())
		}
	}
	return nil
}

func compileRun(req JobRequest) (jobFunc, error) {
	if req.Scheme == "" {
		req.Scheme = "IPU"
	}
	multiTenant := len(req.Tenants) > 0
	if multiTenant {
		if req.Trace != "" {
			return nil, fmt.Errorf("trace and tenants are mutually exclusive (per-tenant traces go in tenants[].trace)")
		}
	} else if req.Trace == "" {
		req.Trace = "ts0"
	}
	if err := validateSchemes([]string{req.Scheme}); err != nil {
		return nil, err
	}
	if req.QueueDepth < 0 {
		return nil, fmt.Errorf("queueDepth %d must be >= 0", req.QueueDepth)
	}
	// The v3 extensions ride on the closed-loop engine only: an open-loop
	// replay has no issue gate for the buffer's backpressure or the
	// tenants' QoS shares to act on.
	if (multiTenant || req.WriteCache != nil) && req.QueueDepth <= 0 {
		return nil, fmt.Errorf("tenants and writeCache require a closed-loop run (queueDepth > 0)")
	}
	if multiTenant {
		tenants := workload.NormalizeTenants(req.Tenants, core.DefaultTenantTrace, req.Seed, req.Scale)
		if err := workload.ValidateTenants(tenants); err != nil {
			return nil, err
		}
		for _, t := range tenants {
			if err := validateTraces([]string{t.Trace}); err != nil {
				return nil, err
			}
		}
	} else if err := validateTraces([]string{req.Trace}); err != nil {
		return nil, err
	}
	if req.WriteCache != nil && req.WriteCache.CapacityBytes > 0 {
		if err := req.WriteCache.Validate(); err != nil {
			return nil, err
		}
	}
	return func(ctx context.Context, report core.ProgressFunc) (any, error) {
		cfg := core.DefaultConfig()
		cfg.Scheme = req.Scheme
		if req.PEBaseline > 0 {
			cfg.Flash.PEBaseline = req.PEBaseline
		}
		sim, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		sim.OnProgress(0, report)
		var res *core.Result
		if req.QueueDepth > 0 {
			spec := core.ClosedLoopSpec{
				Depth:      req.QueueDepth,
				Tenants:    req.Tenants,
				WriteCache: req.WriteCache,
				Seed:       req.Seed,
				Scale:      req.Scale,
			}
			if !multiTenant {
				// The bounded trace cache shares one immutable instance
				// across concurrent jobs replaying the same workload.
				spec.Trace, err = core.SyntheticTrace(req.Trace, req.Seed, req.Scale)
				if err != nil {
					return nil, err
				}
			}
			res, err = sim.RunClosedLoopSpec(ctx, spec)
		} else {
			var tr *trace.Trace
			tr, err = core.SyntheticTrace(req.Trace, req.Seed, req.Scale)
			if err != nil {
				return nil, err
			}
			res, err = sim.RunContext(ctx, tr)
		}
		if err != nil {
			// A cancelled replay stopped between requests, so the device
			// is consistent and can rejoin the snapshot cache's free pool.
			if ctx.Err() != nil {
				sim.Release()
			}
			return nil, err
		}
		sim.Release()
		return res, nil
	}, nil
}

// compileCell builds one sweep cell: a single (trace, scheme, P/E) run,
// optionally at a sensitivity point (param fixed at a value). Cells are
// the sub-jobs a coordinator places on workers; their results are
// bit-identical to the corresponding element of the full sweep.
func compileCell(req JobRequest) (jobFunc, error) {
	if req.Scheme == "" {
		req.Scheme = "IPU"
	}
	if req.Trace == "" {
		req.Trace = "ts0"
	}
	if err := validateSchemes([]string{req.Scheme}); err != nil {
		return nil, err
	}
	if err := validateTraces([]string{req.Trace}); err != nil {
		return nil, err
	}
	if req.QueueDepth != 0 {
		return nil, fmt.Errorf("cell jobs are open-loop (queueDepth %d not supported)", req.QueueDepth)
	}
	if req.PEBaseline < 0 {
		return nil, fmt.Errorf("peBaseline %d must be >= 0", req.PEBaseline)
	}
	var fc *flash.Config
	if req.Param != "" {
		// Reconstruct the sensitivity point's flash configuration from
		// (param, value) — exactly what the coordinator's sweep point uses.
		cfg, err := core.SensitivityCellConfig(req.Param, req.ParamValue)
		if err != nil {
			return nil, err
		}
		fc = &cfg
	}
	return func(ctx context.Context, report core.ProgressFunc) (any, error) {
		spec := core.MatrixSpec{
			Traces:     []string{req.Trace},
			Schemes:    []string{req.Scheme},
			Scale:      req.Scale,
			Seed:       req.Seed,
			Flash:      fc,
			OnProgress: report,
		}
		cell := core.MatrixCell{Trace: req.Trace, Scheme: req.Scheme, PE: req.PEBaseline}
		return core.RunCellContext(ctx, spec, cell)
	}, nil
}

func compileMatrix(req JobRequest) (jobFunc, error) {
	if err := validateSchemes(req.Schemes); err != nil {
		return nil, err
	}
	if err := validateTraces(req.Traces); err != nil {
		return nil, err
	}
	return func(ctx context.Context, report core.ProgressFunc) (any, error) {
		spec := core.MatrixSpec{
			Traces:      req.Traces,
			Schemes:     req.Schemes,
			PEBaselines: req.PEBaselines,
			Scale:       req.Scale,
			Seed:        req.Seed,
			OnProgress:  report,
		}
		return core.RunMatrixContext(ctx, spec)
	}, nil
}

// validateMixes checks every contention mix: non-empty, valid tenant
// specs, known per-tenant traces.
func validateMixes(mixes []core.TenantMix, seed int64, scale float64) error {
	for _, mix := range mixes {
		if len(mix.Tenants) == 0 {
			return fmt.Errorf("contention mix %q is empty", mix.Name)
		}
		tenants := workload.NormalizeTenants(mix.Tenants, core.DefaultTenantTrace, seed, scale)
		if err := workload.ValidateTenants(tenants); err != nil {
			return err
		}
		for _, t := range tenants {
			if err := validateTraces([]string{t.Trace}); err != nil {
				return err
			}
		}
	}
	return nil
}

// compileContention builds the multi-tenant contention study: every
// (mix, buffer arm, scheme) cell replayed closed-loop, rows in the
// study's deterministic enumeration order.
func compileContention(req JobRequest) (jobFunc, error) {
	if err := validateSchemes(req.Schemes); err != nil {
		return nil, err
	}
	if err := validateMixes(req.Mixes, req.Seed, req.Scale); err != nil {
		return nil, err
	}
	if req.QueueDepth < 0 {
		return nil, fmt.Errorf("queueDepth %d must be >= 0", req.QueueDepth)
	}
	if req.CacheBytes < 0 {
		return nil, fmt.Errorf("cacheBytes %d must be >= 0", req.CacheBytes)
	}
	return func(ctx context.Context, report core.ProgressFunc) (any, error) {
		spec := core.TenantContentionSpec{
			Mixes:      req.Mixes,
			Schemes:    req.Schemes,
			Depth:      req.QueueDepth,
			CacheBytes: req.CacheBytes,
			Seed:       req.Seed,
			Scale:      req.Scale,
			OnProgress: report,
		}
		return core.RunTenantContentionContext(ctx, spec)
	}, nil
}

func compileSensitivity(req JobRequest) (jobFunc, error) {
	if _, ok := core.SensitivityParams[req.Param]; !ok {
		params := make([]string, 0, len(core.SensitivityParams))
		for p := range core.SensitivityParams {
			params = append(params, p)
		}
		return nil, fmt.Errorf("unknown sensitivity param %q (have %v)", req.Param, params)
	}
	if err := validateSchemes(req.Schemes); err != nil {
		return nil, err
	}
	if err := validateTraces(req.Traces); err != nil {
		return nil, err
	}
	return func(ctx context.Context, report core.ProgressFunc) (any, error) {
		spec := core.MatrixSpec{
			Traces:     req.Traces,
			Schemes:    req.Schemes,
			Scale:      req.Scale,
			Seed:       req.Seed,
			OnProgress: report,
		}
		return core.RunSensitivityContext(ctx, req.Param, spec)
	}, nil
}
