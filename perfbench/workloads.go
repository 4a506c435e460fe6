package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"ipusim/internal/core"
)

// setupReps is how many cold starts a run times before its timed phase;
// the median is reported. Each figs cycle adds one more.
const setupReps = 7

func (o opts) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// tracedSchemes are the five comparison schemes behind the decorator.
func tracedSchemes() []string {
	out := make([]string, len(core.SchemeNames))
	for i, s := range core.SchemeNames {
		out[i] = tracedPrefix + s
	}
	return out
}

// checker is the output check. Each cycle's Results must hash to the
// digest pinned for pinnedSeed, or at any other trace seed to the digest
// of the run's first cycle at that seed; a traced cycle must equal the
// untraced one at its seed once the decorator's label is masked. Every
// mismatch counts as a failed operation.
type checker struct {
	workload          string
	first, masked     map[int64]string
	attempted, failed int
}

func newChecker(workload string) *checker {
	return &checker{workload: workload, first: map[int64]string{}, masked: map[int64]string{}}
}

// untraced checks the Results of an untraced cycle.
func (c *checker) untraced(ck check) {
	c.attempted += ck.ops
	want, seen := c.first[ck.seed]
	if !seen {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d digest %s\n", c.workload, ck.seed, ck.digest)
		c.first[ck.seed], c.masked[ck.seed] = ck.digest, ck.masked
		want = ck.digest
		if ck.seed == pinnedSeed {
			want = pinned[c.workload]
		}
	}
	if ck.digest != want {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d results digest %s, want %s\n", c.workload, ck.seed, ck.digest, want)
	}
}

// traced checks the Results of a traced cycle against the untraced ones.
func (c *checker) traced(ck check) {
	c.attempted += ck.ops
	if want, ok := c.masked[ck.seed]; !ok || ck.masked != want {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced results differ from untraced\n", c.workload, ck.seed)
	}
}

// window is one slice of a timed phase, in reference time: how long it
// lasted, the jobs that completed in it with their latencies, and the
// simulated requests they replayed.
type window struct {
	dur       time.Duration
	requests  int64
	completed int
	lat       []time.Duration
}

// toReference sets the window's duration from its host time and converts
// it and the latencies, measured at slowdown f, to reference time. Failed
// jobs stay at failedLatency.
func (w *window) toReference(host time.Duration, f float64) {
	w.dur = scale(host, f)
	for i, d := range w.lat {
		if d != failedLatency {
			w.lat[i] = scale(d, f)
		}
	}
}

// cycleWindow makes a figs or tenants cycle, measured at slowdown f, a
// window; its jobs are the cells of the sweep or study.
func cycleWindow(c cycle, f float64) window {
	w := window{requests: c.requests, completed: len(c.cellLat), lat: append([]time.Duration(nil), c.cellLat...)}
	w.toReference(c.timed, f)
	return w
}

// endToEnd sets every end-to-end metric: the median set-up time, the peak
// resident memory, and the rates and job latency percentiles of the timed
// phase, each the median over its windows so that a burst of interference
// from outside the process moves one window, not the figure.
func endToEnd(rep *report, setups []time.Duration, ws []window) {
	var setupS, req, jobs, p50, p99 []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	for _, w := range ws {
		req = append(req, float64(w.requests)/w.dur.Seconds())
		jobs = append(jobs, float64(w.completed)/w.dur.Seconds())
		p50 = append(p50, percentile(w.lat, 0.50))
		p99 = append(p99, percentile(w.lat, 0.99))
	}
	rep.set("setup_s", "s", median(setupS))
	rep.set("sim_req_per_s", "1/s", median(req))
	rep.set("jobs_per_s", "1/s", median(jobs))
	rep.set("job_p50_ms", "ms", median(p50))
	rep.set("job_p99_ms", "ms", median(p99))
	rep.set("peak_rss_mb", "MB", peakRSSMB())
}

// rate is simulated requests (figs, tenants) or completed jobs (daemon)
// per reference second over windows.
func rate(ws []window, jobs bool) float64 {
	var n int64
	var d time.Duration
	for _, w := range ws {
		if jobs {
			n += int64(w.completed)
		} else {
			n += w.requests
		}
		d += w.dur
	}
	return float64(n) / d.Seconds()
}

// timedSetup runs one set-up into empty caches and returns its time at
// reference speed.
func (o opts) timedSetup(setup func() error) (time.Duration, error) {
	coldStart()
	f := o.cal.slowdown()
	t0 := time.Now()
	if err := setup(); err != nil {
		return 0, err
	}
	return scale(time.Since(t0), f), nil
}

// setups times setupReps cold starts.
func (o opts) setups(setup func() error) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < setupReps; i++ {
		d, err := o.timedSetup(setup)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// simCycle runs one cycle of a figs or tenants run, with the host
// calibrated before (slow) and after it; it returns the cycle, its window
// and the calibration after it.
func (o opts) simCycle(slow float64, one func() (cycle, error)) (cycle, window, float64, error) {
	c, err := one()
	if err != nil {
		return c, window{}, 0, err
	}
	next := o.cal.slowdown()
	f := (slow + next) / 2
	c.setup = scale(c.setup, f)
	return c, cycleWindow(c, f), next, nil
}

// runCycles alternates untraced and traced cold cycles until the run's
// time is up, ending on a traced one, and reports the per-layer metrics of
// the traced cycles. Pair i of cycles runs at trace seed seeds[i mod len].
func runCycles(o opts, chk *checker, rep *report, seeds []int64, one func(tr *tracer, schemes []string, seed int64) (cycle, error)) error {
	var plain, traced []window
	var l layers
	start := time.Now()
	coldStart()
	slow := o.cal.slowdown()
	for i := 0; i < 2 || i%2 == 1 || time.Since(start) < o.duration(); i++ {
		seed := seeds[(i/2)%len(seeds)]
		if i%2 == 0 {
			c, w, next, err := o.simCycle(slow, func() (cycle, error) { return one(nil, core.SchemeNames, seed) })
			if err != nil {
				return err
			}
			for _, ck := range c.checks {
				chk.untraced(ck)
			}
			plain = append(plain, w)
			slow = next
			coldStart()
			continue
		}
		a0, g0 := goRuntime()
		o.tr.begin("traced cycle")
		c, w, next, err := o.simCycle(slow, func() (cycle, error) { return one(o.tr, tracedSchemes(), seed) })
		o.tr.end()
		if err != nil {
			return err
		}
		a1, g1 := goRuntime()
		l.allocB += a1 - a0
		l.gcCycles += g1 - g0
		for _, ck := range c.checks {
			chk.traced(ck)
		}
		for _, r := range c.results {
			l.rt.add(r)
		}
		for _, d := range c.cellLat {
			l.cellNS += int64(d)
		}
		l.slotsNS += int64(c.slots)
		traced = append(traced, w)
		slow = next
		coldStart()
	}
	l.cycles = len(traced)
	l.lt = o.tr.take()
	l.workers = runtime.GOMAXPROCS(0)
	l.wallNS = l.slotsNS / int64(l.workers)
	l.untraced, l.traced = rate(plain, false), rate(traced, false)
	l.calMS = o.cal.medianMS()
	l.report(rep)
	return nil
}

// simRun is the untraced run of figs or tenants: setupReps timed cold
// starts, then cycles until the run's time is up. Set-up rep i and cycle
// i take their index; prep runs before each cycle: figs makes every cycle
// cold, tenants keeps its caches warm.
func simRun(o opts, chk *checker, rep *report, setup func(i int) error, prep func(), one func(i int) (cycle, error)) error {
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		d, err := o.timedSetup(func() error { return setup(i) })
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}
	var ws []window
	prep()
	slow := o.cal.slowdown()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.duration(); i++ {
		c, w, next, err := o.simCycle(slow, func() (cycle, error) { return one(i) })
		if err != nil {
			return err
		}
		for _, ck := range c.checks {
			chk.untraced(ck)
		}
		if c.setup > 0 {
			setups = append(setups, c.setup)
		}
		ws = append(ws, w)
		prep()
		slow = next
	}
	endToEnd(rep, setups, ws)
	return nil
}

func runFigs(ctx context.Context, o opts) (*report, error) {
	rep := &report{}
	chk := newChecker("figs")
	seeds := traceSeeds(o.seed, figsSeeds)
	one := func(tr *tracer, schemes []string, seed int64) (cycle, error) {
		return figsCycle(ctx, seed, schemes, tr)
	}
	var err error
	if o.traced {
		err = runCycles(o, chk, rep, seeds, one)
	} else {
		err = simRun(o, chk, rep,
			func(i int) error { return figsSetup(ctx, seeds[i%len(seeds)], core.SchemeNames, nil) },
			coldStart,
			func(i int) (cycle, error) { return one(nil, core.SchemeNames, seeds[i%len(seeds)]) })
	}
	rep.attempted, rep.failed = chk.attempted, chk.failed
	return rep, err
}

func runTenants(ctx context.Context, o opts) (*report, error) {
	rep := &report{}
	chk := newChecker("tenants")
	seeds := traceSeeds(o.seed, tenantsSeeds)
	var err error
	if o.traced {
		err = runCycles(o, chk, rep, seeds, func(tr *tracer, schemes []string, seed int64) (cycle, error) {
			t0 := time.Now()
			if err := tenantsSetup(ctx, []int64{seed}, schemes, tr); err != nil {
				return cycle{}, err
			}
			c, err := tenantsStudy(ctx, seed, schemes, tr)
			c.setup = time.Since(t0)
			return c, err
		})
	} else {
		// The last timed set-up leaves the caches warm for the rounds, each
		// one study per trace seed.
		err = simRun(o, chk, rep,
			func(int) error { return tenantsSetup(ctx, seeds, core.SchemeNames, nil) },
			func() {},
			func(int) (cycle, error) {
				var round []cycle
				for _, seed := range seeds {
					c, err := tenantsStudy(ctx, seed, core.SchemeNames, nil)
					if err != nil {
						return cycle{}, err
					}
					round = append(round, c)
				}
				return merge(round), nil
			})
	}
	rep.attempted, rep.failed = chk.attempted, chk.failed
	return rep, err
}

// daemonPhase starts a daemon from empty caches (reps times, timing each
// set-up, when timing set-up), drives it for dur and stops it.
func daemonPhase(ctx context.Context, o opts, schemes []string, reps int, dur time.Duration, tr *tracer) (daemonRun, []time.Duration, error) {
	var setups []time.Duration
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return daemonRun{}, nil, err
			}
		}
		s, err := o.timedSetup(func() error {
			var err error
			d, err = startDaemon(ctx, o.seed, schemes, tr)
			return err
		})
		if err != nil {
			return daemonRun{}, nil, err
		}
		setups = append(setups, s)
	}
	if tr != nil {
		tr.begin("timed")
	}
	dr := driveDaemon(d, o, schemes, dur, tr)
	if tr != nil {
		tr.end()
	}
	return dr, setups, d.stop()
}

// checkDaemon counts failed jobs and verified jobs whose Result differs
// from the same replay run in-process (or, at pinnedSeed, from the pinned
// digest).
func checkDaemon(ctx context.Context, o opts, dr daemonRun) (attempted, failed int, err error) {
	for _, j := range dr.jobs {
		if !j.ok {
			failed++
		}
	}
	bad, want, err := verifyDaemon(ctx, o.seed, core.SchemeNames, dr.verified)
	if err != nil {
		return 0, 0, err
	}
	failed += bad
	d := digest(want)
	fmt.Fprintf(os.Stderr, "perfbench: daemon seed %d digest %s\n", o.seed, d)
	if o.seed == pinnedSeed && d != pinned["daemon"] {
		fmt.Fprintf(os.Stderr, "perfbench: daemon results digest %s, want %s\n", d, pinned["daemon"])
		failed++
	}
	return len(dr.jobs), failed, nil
}

func runDaemon(ctx context.Context, o opts) (*report, error) {
	rep := &report{}
	if !o.traced {
		dr, setups, err := daemonPhase(ctx, o, core.SchemeNames, setupReps, o.duration(), nil)
		if err != nil {
			return nil, err
		}
		if rep.attempted, rep.failed, err = checkDaemon(ctx, o, dr); err != nil {
			return nil, err
		}
		endToEnd(rep, setups, dr.windows)
		return rep, nil
	}

	half := o.duration() / 2
	plain, _, err := daemonPhase(ctx, o, core.SchemeNames, 1, half, nil)
	if err != nil {
		return nil, err
	}
	if rep.attempted, rep.failed, err = checkDaemon(ctx, o, plain); err != nil {
		return nil, err
	}
	a0, g0 := goRuntime()
	o.tr.begin("traced phase")
	traced, _, err := daemonPhase(ctx, o, tracedSchemes(), 1, half, o.tr)
	o.tr.end()
	if err != nil {
		return nil, err
	}
	a1, g1 := goRuntime()
	rep.attempted += len(traced.jobs)
	for _, j := range traced.jobs {
		if !j.ok {
			rep.failed++
		}
	}
	if maskedDigest(traced.verified) != maskedDigest(plain.verified) {
		fmt.Fprintln(os.Stderr, "perfbench: daemon traced results differ from untraced")
		rep.failed++
	}

	workers := runtime.NumCPU()
	l := layers{cycles: 1, workers: workers, jobs: traced.jobs, allocB: a1 - a0, gcCycles: g1 - g0}
	l.lt = o.tr.take()
	// Daemon jobs are the cells here; their loop self time is the
	// daemon's run time minus the snapshot and scheme time inside it.
	l.lt.cells = int64(len(traced.executed))
	for _, r := range traced.executed {
		l.rt.add(r)
	}
	for _, j := range traced.jobs {
		if j.ok && !j.cached {
			l.cellNS += int64(j.run)
		}
	}
	l.lt.loopSelfNS = max(0, l.cellNS-l.lt.restoreNS-l.lt.writeNS-l.lt.gcNS-l.lt.readNS)
	l.wallNS = int64(traced.wall)
	l.slotsNS = l.wallNS * int64(workers)
	l.stats = traced.stats
	l.untraced, l.traced = rate(plain.windows, true), rate(traced.windows, true)
	l.calMS = o.cal.medianMS()
	l.report(rep)
	return rep, nil
}
