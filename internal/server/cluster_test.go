package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"ipusim/internal/core"
	"ipusim/internal/trace"
)

// fetchResult GETs a finished job's result and returns its view plus the
// raw result bytes exactly as the handler rendered them — the unit of the
// byte-identity assertions.
func fetchResult(t *testing.T, ts *httptest.Server, id string) (JobView, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: HTTP %d", id, resp.StatusCode)
	}
	var out struct {
		Job    JobView         `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Job, out.Result
}

// runToResult submits a job over HTTP, waits for it to finish and returns
// its raw result bytes.
func runToResult(t *testing.T, ts *httptest.Server, body string, timeout time.Duration) (JobView, []byte) {
	t.Helper()
	resp, v := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	done := waitState(t, ts, v.ID, func(v JobView) bool { return v.State.Terminal() }, timeout)
	if done.State != StateDone {
		t.Fatalf("job %s: state %s (error %q), want done", v.ID, done.State, done.Error)
	}
	return done, fetchResultBytes(t, ts, v.ID)
}

func fetchResultBytes(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	_, b := fetchResult(t, ts, id)
	return b
}

// mustStatsOf snapshots a server's counters.
func mustStatsOf(svc *Server) Stats { return svc.Stats() }

// TestCacheHitEndToEnd submits the same job twice: the first runs the
// simulator, the second must come back from the result cache — already
// done at submit time, marked cached, byte-identical result — without the
// run counter moving.
func TestCacheHitEndToEnd(t *testing.T) {
	svc, ts := newTestService(t, Options{Workers: 2})
	body := `{"kind":"run","scheme":"IPU","trace":"ts0","scale":0.02,"seed":7}`

	first, firstBytes := runToResult(t, ts, body, 30*time.Second)
	if first.Cached {
		t.Fatal("first submission marked cached")
	}
	if first.Key == "" {
		t.Fatal("job has no content-addressed key")
	}

	resp, second := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d", resp.StatusCode)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("resubmission state %s cached %v, want done from cache", second.State, second.Cached)
	}
	if second.Key != first.Key {
		t.Fatalf("identical submissions got keys %s and %s", first.Key, second.Key)
	}
	secondBytes := fetchResultBytes(t, ts, second.ID)
	if !bytes.Equal(secondBytes, firstBytes) {
		t.Fatalf("cached result differs from original:\n%s\nvs\n%s", secondBytes, firstBytes)
	}

	st := mustStatsOf(svc)
	if st.Executed != 1 {
		t.Fatalf("executed = %d after a cache hit, want 1 (sim must not re-run)", st.Executed)
	}
	if st.CacheHits != 1 || st.Submitted != 2 || st.Done != 2 {
		t.Fatalf("stats = %+v, want 2 submitted, 2 done, 1 cache hit", st)
	}
}

// TestCanonicalKeyHitsCache asserts the canonical-ID fix: submissions that
// differ only in JSON key order, spelled-out defaults, or lifecycle fields
// (timeout) share a content address and therefore hit the cache.
func TestCanonicalKeyHitsCache(t *testing.T) {
	svc, ts := newTestService(t, Options{Workers: 2, DefaultScale: 0.02})

	explicit := `{"kind":"run","scheme":"IPU","trace":"ts0","scale":0.02,"seed":42,"timeout":"2m"}`
	first, firstBytes := runToResult(t, ts, explicit, 30*time.Second)

	// Same experiment, keys reordered, every default left implicit.
	implicit := `{"seed":42,"kind":"run"}`
	resp, second := postJob(t, ts, implicit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d", resp.StatusCode)
	}
	if second.Key != first.Key {
		t.Fatalf("semantically identical submissions got keys %s and %s", first.Key, second.Key)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("resubmission state %s cached %v, want a cache hit", second.State, second.Cached)
	}
	if got := fetchResultBytes(t, ts, second.ID); !bytes.Equal(got, firstBytes) {
		t.Fatalf("cached result differs from original")
	}
	if st := mustStatsOf(svc); st.Executed != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 executed, 1 cache hit", st)
	}
}

// TestJobKeyCanonicalisation pins the key function itself: defaults
// explicit or implicit hash the same, and every output-affecting field
// separates keys.
func TestJobKeyCanonicalisation(t *testing.T) {
	const scale = 0.05
	implicit := jobKey(JobRequest{Kind: "matrix"}, scale)
	explicit := jobKey(JobRequest{
		Kind:        "matrix",
		Traces:      trace.ProfileNames(),
		Schemes:     append([]string(nil), core.SchemeNames...),
		PEBaselines: []int{0},
		Scale:       scale,
		Seed:        42,
		Timeout:     "3m", // lifecycle-only; must not affect the key
		Parallelism: 8,    // accepted and ignored; must not affect the key
	}, scale)
	if implicit != explicit {
		t.Fatalf("defaulted matrix keys differ: %s vs %s", implicit, explicit)
	}
	distinct := []JobRequest{
		{Kind: "matrix", Seed: 43},
		{Kind: "matrix", Scale: 0.1},
		{Kind: "matrix", Schemes: []string{"IPU"}},
		{Kind: "run"},
		{Kind: "cell"},
		{Kind: "cell", PEBaseline: 3000},
		{Kind: "cell", Param: "cacheSlots", ParamValue: 2},
	}
	seen := map[string]int{implicit: -1}
	for i, req := range distinct {
		k := jobKey(req, scale)
		if prev, dup := seen[k]; dup {
			t.Errorf("requests %d and %d collide on key %s", i, prev, k)
		}
		seen[k] = i
	}
}

// TestRestartRecovery drives the durable-store loop end to end: a daemon
// completes one job and is stopped with more jobs mid-queue; a fresh
// daemon on the same data directory must serve the completed result
// byte-for-byte without re-running it and re-run the interrupted jobs to
// bit-identical output.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, QueueCap: 16, DataDir: dir, DefaultScale: 0.01}

	snapshot := func(svc *Server, id string) (JobView, []byte) {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		j, ok := svc.jobs[id]
		if !ok {
			return JobView{}, nil
		}
		return j.viewLocked(), j.resultJSON
	}
	waitDone := func(svc *Server, id string) []byte {
		deadline := time.Now().Add(60 * time.Second)
		for {
			v, b := snapshot(svc, id)
			if v.State == StateDone {
				return b
			}
			if v.State.Terminal() {
				t.Fatalf("job %s: state %s (error %q), want done", id, v.State, v.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished (last %+v)", id, v)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	svc1 := New(opts)
	fast := JobRequest{Kind: "run", Scheme: "IPU", Trace: "ts0", Scale: 0.01, Seed: 5}
	jA, err := svc1.Submit(fast)
	if err != nil {
		t.Fatal(err)
	}
	bytesA := waitDone(svc1, jA.ID)

	// One slow job plus two queued behind it on the single worker.
	slow := JobRequest{Kind: "run", Scheme: "Baseline", Trace: "ts0", Scale: 0.2, Seed: 9}
	jB, err := svc1.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	var queuedIDs []string
	for seed := int64(21); seed <= 22; seed++ {
		j, err := svc1.Submit(JobRequest{Kind: "run", Scheme: "IPU", Trace: "wdev0", Scale: 0.01, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		queuedIDs = append(queuedIDs, j.ID)
	}
	// Stop once the slow job is demonstrably mid-replay.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, _ := snapshot(svc1, jB.ID)
		if v.State == StateRunning && v.Progress.Replayed > 0 {
			break
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("slow job not observed mid-replay (last %+v)", v)
		}
		time.Sleep(time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	svc1.Shutdown(shutCtx) // drain cut short: in-flight work interrupted
	cancel()

	// A fresh daemon on the same directory recovers the table.
	svc2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc2.Shutdown(ctx)
	}()
	vA, bA := snapshot(svc2, jA.ID)
	if vA.State != StateDone || !vA.Cached {
		t.Fatalf("recovered job %s: state %s cached %v, want done from store", jA.ID, vA.State, vA.Cached)
	}
	if !bytes.Equal(bA, bytesA) {
		t.Fatalf("restored result differs from the original run")
	}

	// The interrupted jobs re-ran; the slow one must match a fresh
	// reference daemon bit for bit.
	reRun := waitDone(svc2, jB.ID)
	for _, id := range queuedIDs {
		waitDone(svc2, id)
	}
	if st := svc2.Stats(); st.Executed != 3 {
		t.Fatalf("restarted daemon executed %d jobs, want only the 3 interrupted ones", st.Executed)
	}

	ref := New(Options{Workers: 1, DefaultScale: 0.01})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		ref.Shutdown(ctx)
	}()
	jRef, err := ref.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(ref, jRef.ID)
	if !bytes.Equal(reRun, want) {
		t.Fatalf("re-run after restart diverged from a fresh daemon:\n%s\nvs\n%s", reRun, want)
	}

	// Resubmitting the completed job hits the store-backed cache.
	jA2, err := svc2.Submit(fast)
	if err != nil {
		t.Fatal(err)
	}
	vA2, bA2 := snapshot(svc2, jA2.ID)
	if vA2.State != StateDone || !vA2.Cached || !bytes.Equal(bA2, bytesA) {
		t.Fatalf("resubmission after restart not served from store (state %s cached %v)", vA2.State, vA2.Cached)
	}
	if st := svc2.Stats(); st.Executed != 3 || st.CacheHits != 1 {
		t.Fatalf("stats after resubmit = %+v, want executed 3, cacheHits 1", st)
	}
}

// TestCoordinatorSoakWorkerFailure extends the acceptance soak to the
// cluster, run under -race by `make serve-cluster-test`: a coordinator
// shards four concurrent matrix sweeps — 32 cell sub-jobs — over two
// in-process workers, one worker is killed mid-sweep, and every
// aggregated response must still match a single daemon byte for byte,
// with no goroutine leaks.
func TestCoordinatorSoakWorkerFailure(t *testing.T) {
	baseline := runtime.NumGoroutine()

	pool := Options{Workers: 4, QueueCap: 64, DefaultScale: 0.01}
	w1 := New(pool)
	ts1 := httptest.NewServer(w1.Handler())
	w2 := New(pool)
	ts2 := httptest.NewServer(w2.Handler())

	copts := pool
	copts.WorkerURLs = []string{ts1.URL, ts2.URL}
	coord := New(copts)
	tsc := httptest.NewServer(coord.Handler())

	// Four matrix sweeps over 2 traces x 4 schemes = 32 cells in flight.
	const sweeps = 4
	bodies := make([]string, sweeps)
	ids := make([]string, sweeps)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(
			`{"kind":"matrix","traces":["ts0","wdev0"],"schemes":["Baseline","MGA","IPU","IPU-AC"],"scale":0.02,"seed":%d}`,
			50+i)
		resp, v := postJob(t, tsc, bodies[i])
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep %d: HTTP %d", i, resp.StatusCode)
		}
		ids[i] = v.ID
	}

	// Kill worker 2 once it has demonstrably executed sub-jobs.
	deadline := time.Now().Add(30 * time.Second)
	for w2.Stats().Executed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker 2 never received a cell")
		}
		time.Sleep(time.Millisecond)
	}
	ts2.Close()
	{
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		w2.Shutdown(ctx)
		cancel()
	}

	for _, id := range ids {
		v := waitState(t, tsc, id, func(v JobView) bool { return v.State.Terminal() }, 120*time.Second)
		if v.State != StateDone {
			t.Fatalf("sweep %s: state %s (error %q) after worker kill, want done", id, v.State, v.Error)
		}
	}

	var view ClusterView
	if code := getJSON(t, tsc, "/v1/cluster", &view); code != http.StatusOK {
		t.Fatalf("cluster view: HTTP %d", code)
	}
	if !view.Coordinator || view.Alive[ts2.URL] {
		t.Fatalf("cluster view = %+v, want dead worker 2", view)
	}
	if view.RemoteCells == 0 {
		t.Fatal("coordinator placed no cells remotely")
	}
	t.Logf("soak: %d cells remote, %d local fallback", view.RemoteCells, view.FallbackCells)

	// Bit-for-bit: every aggregated response equals a single plain daemon's.
	ref := New(pool)
	tsr := httptest.NewServer(ref.Handler())
	for i, id := range ids {
		got := fetchResultBytes(t, tsc, id)
		_, want := runToResult(t, tsr, bodies[i], 120*time.Second)
		if !bytes.Equal(got, want) {
			t.Fatalf("sweep %d: coordinator result differs from single daemon", i)
		}
	}

	// Tear down the whole cluster, then require every goroutine gone.
	tsr.Close()
	tsc.Close()
	ts1.Close()
	for _, svc := range []*Server{ref, coord, w1} {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		cancel()
	}
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCoordinatorFallbackAllWorkersDown starves the coordinator of every
// worker: the fleet is one already-dead URL, so each cell must fall back
// to in-process execution and the sweep still completes with the exact
// single-daemon bytes.
func TestCoordinatorFallbackAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	copts := Options{Workers: 2, WorkerURLs: []string{deadURL}, DefaultScale: 0.01}
	coordSvc, tsc := newTestService(t, copts)
	body := `{"kind":"matrix","traces":["ts0"],"schemes":["Baseline","IPU"],"scale":0.02,"seed":3}`
	_, got := runToResult(t, tsc, body, 60*time.Second)

	st := mustStatsOf(coordSvc)
	if st.RemoteCells != 0 || st.FallbackCells != 2 {
		t.Fatalf("remote %d fallback %d, want all 2 cells local", st.RemoteCells, st.FallbackCells)
	}

	_, tsr := newTestService(t, Options{Workers: 2, DefaultScale: 0.01})
	_, want := runToResult(t, tsr, body, 60*time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("fallback result differs from single daemon:\n%s\nvs\n%s", got, want)
	}
}
