package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ipusim/internal/core"
	"ipusim/internal/server"
	"ipusim/internal/trace"
)

// daemonScale keeps each run job small, so the daemon's own overhead is a
// visible share of a job.
const daemonScale = 0.01

// resubmitShare is the chance a client re-submits one of its earlier jobs,
// which the result cache serves. Keeping it under one half puts the
// latency median inside the simulated jobs rather than in the gap between
// the two populations.
const resubmitShare = 0.45

// daemonJob is one run job: a (trace, scheme, seed) replay.
type daemonJob struct {
	Trace, Scheme string
	Seed          int64
}

func (j daemonJob) request() server.JobRequest {
	return server.JobRequest{Kind: "run", Trace: j.Trace, Scheme: j.Scheme, Seed: j.Seed, Scale: daemonScale}
}

// freshJob is the f-th job that is new to the daemon: it walks every
// (trace, scheme) pair at one seed, then moves to the next seed, so each
// synthesised trace serves all schemes.
func freshJob(seed int64, f int, schemes []string) daemonJob {
	traces := trace.ProfileNames()
	pairs := len(traces) * len(schemes)
	p := f % pairs
	return daemonJob{Trace: traces[p/len(schemes)], Scheme: schemes[p%len(schemes)], Seed: seed + int64(f/pairs)}
}

// verifyJobs is how many fresh jobs are checked against the simulator run
// in-process: every (trace, scheme) pair at the first seed.
func verifyJobs(schemes []string) int { return len(trace.ProfileNames()) * len(schemes) }

// daemon is an in-process ipusimd serving its HTTP API on loopback.
type daemon struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan error
}

// startDaemon is the daemon workload's set-up into empty caches: the
// server and its listener, then the traces of the first fresh seed and the
// five templates, which its first jobs would otherwise build.
func startDaemon(ctx context.Context, seed int64, schemes []string, tr *tracer) (*daemon, error) {
	if tr != nil {
		tr.begin("setup")
		defer tr.end()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{srv: server.New(server.Options{Workers: runtime.NumCPU()}), base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.http.Serve(ln) }()
	if err := synthTraces(tr, matrixTraces(seed, daemonScale)); err != nil {
		d.stop()
		return nil, err
	}
	if err := buildTemplates(ctx, schemes); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener and the service down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.http.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, d.srv.Shutdown(ctx))
}

// jobSample is one job as the client saw it, with the daemon's own
// timestamps for where its time went.
type jobSample struct {
	ok                    bool
	cached                bool
	latency               time.Duration
	queue, run, transport time.Duration
	requests              int64
}

// daemonRun is the outcome of one closed-loop phase against a daemon.
type daemonRun struct {
	wall     time.Duration // host time with clients running
	jobs     []jobSample
	windows  []window       // at reference speed
	verified []*core.Result // fresh jobs 0..verifyJobs-1, in order
	executed []*core.Result // every job the simulator ran
	stats    server.Stats
}

// daemonWindow is the length the daemon's timed phase is cut into: long
// enough that each window's p99 has more than ten jobs beyond it.
const daemonWindow = 5 * time.Second

// daemonClient is one closed-loop client's state, kept across windows.
type daemonClient struct {
	rng     *rand.Rand
	history []submitted
}

// submitted is a fresh job a client completed, with the hash of its
// result bytes.
type submitted struct {
	job  daemonJob
	hash [32]byte
}

// driveDaemon runs one closed loop per CPU against d for dur, cut into
// windows of about daemonWindow with the host calibrated between them:
// each client submits a run job, follows its /stream to the end and
// fetches /result, then submits the next. A window ends when every client
// has finished its last job; the last window runs on until the verified
// fresh jobs have all been claimed.
func driveDaemon(d *daemon, o opts, schemes []string, dur time.Duration, tr *tracer) daemonRun {
	n := max(1, int(dur/daemonWindow))
	nverify := verifyJobs(schemes)
	clients := make([]daemonClient, runtime.NumCPU())
	for c := range clients {
		clients[c].rng = rand.New(rand.NewSource(o.seed*7919 + int64(c)))
	}
	var fresh atomic.Int64
	out := daemonRun{verified: make([]*core.Result, nverify)}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: len(clients)}}
	defer hc.CloseIdleConnections()

	slow := o.cal.slowdown()
	for w := 0; w < n; w++ {
		var mu sync.Mutex // guards out and win
		var win window
		start := time.Now()
		more := func() bool {
			return time.Since(start) < dur/time.Duration(n) || (w == n-1 && fresh.Load() < int64(nverify))
		}
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(cl *daemonClient) {
				defer wg.Done()
				for more() {
					f, prior := -1, -1
					var job daemonJob
					if len(cl.history) > 0 && cl.rng.Float64() < resubmitShare {
						prior = len(cl.history) - 1 - cl.rng.Intn(min(16, len(cl.history)))
						job = cl.history[prior].job
					} else {
						f = int(fresh.Add(1) - 1)
						job = freshJob(o.seed, f, schemes)
					}
					var t0 int64
					if tr != nil {
						t0 = tr.now()
					}
					s, raw := runJob(hc, d.base, job.request())
					if tr != nil {
						tr.record("job "+job.Trace+"/"+job.Scheme, t0, tr.now())
					}
					var res core.Result
					if s.ok {
						if err := json.Unmarshal(raw, &res); err != nil || res.Scheme != job.Scheme || res.Trace != job.Trace {
							s.ok = false
						}
					}
					hash := sha256.Sum256(raw)
					if s.ok && prior >= 0 && cl.history[prior].hash != hash {
						s.ok = false // the cache served other bytes than the run that filled it
					}
					s.requests = int64(res.Requests)
					if s.ok && f >= 0 {
						cl.history = append(cl.history, submitted{job, hash})
					}
					mu.Lock()
					if s.ok && f >= 0 && f < nverify {
						out.verified[f] = &res
					}
					if s.ok && !s.cached {
						out.executed = append(out.executed, &res)
						win.requests += s.requests
					}
					if s.ok {
						win.completed++
						win.lat = append(win.lat, s.latency)
					} else {
						win.lat = append(win.lat, failedLatency)
					}
					out.jobs = append(out.jobs, s)
					mu.Unlock()
				}
			}(&clients[c])
		}
		wg.Wait()
		wall := time.Since(start)
		out.wall += wall
		next := o.cal.slowdown()
		win.toReference(wall, (slow+next)/2)
		out.windows = append(out.windows, win)
		slow = next
	}
	out.stats = d.srv.Stats()
	return out
}

// runJob submits one job, follows its progress stream until the job is
// terminal and fetches its result. It returns the raw result JSON.
func runJob(hc *http.Client, base string, req server.JobRequest) (jobSample, []byte) {
	var s jobSample
	t0 := time.Now()
	body, err := json.Marshal(req)
	if err != nil {
		return s, nil
	}
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return s, nil
	}
	var view server.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return s, nil
	}
	// The stream ends once the job is terminal; only its end matters here.
	resp, err = hc.Get(base + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		return s, nil
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, nil
	}
	resp, err = hc.Get(base + "/v1/jobs/" + view.ID + "/result")
	if err != nil {
		return s, nil
	}
	var out struct {
		Job    server.JobView  `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	s.latency = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusOK || out.Job.State != server.StateDone ||
		out.Job.Started == nil || out.Job.Finished == nil {
		return s, nil
	}
	j := out.Job
	s.ok = true
	s.cached = j.Cached
	s.queue = j.Started.Sub(j.Submitted)
	s.run = j.Finished.Sub(*j.Started)
	s.transport = s.latency - j.Finished.Sub(j.Submitted)
	return s, out.Result
}

// verifyDaemon replays the verified fresh jobs in-process through
// core.RunCellContext and counts those whose daemon Result differs.
func verifyDaemon(ctx context.Context, seed int64, schemes []string, got []*core.Result) (int, []*core.Result, error) {
	want := make([]*core.Result, len(got))
	bad := 0
	for f := range got {
		job := freshJob(seed, f, schemes)
		spec := core.MatrixSpec{Traces: []string{job.Trace}, Schemes: []string{job.Scheme}, Scale: daemonScale, Seed: job.Seed}
		r, err := core.RunCellContext(ctx, spec, core.MatrixCell{Trace: job.Trace, Scheme: job.Scheme})
		if err != nil {
			return 0, nil, err
		}
		want[f] = r
		if got[f] == nil || digest(got[f]) != digest(r) {
			bad++
		}
	}
	return bad, want, nil
}
