// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator and ipusimd through their public Go API at default settings
// and reports host-time metrics for three workloads:
//
//   - figs: one cold `experiments -pesweep` regeneration after another.
//   - tenants: the multi-tenant contention study on warm caches.
//   - daemon: an in-process ipusimd on loopback, driven by one closed-loop
//     client per CPU submitting small run jobs.
//
// Usage (from the perfbench directory):
//
//	go run . -workload figs -seed 42 -seconds 30 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// untraced and traced cycles back to back and prints the per-layer
// metrics, timed from outside each layer by the traced/<scheme> decorator,
// plus the tracing overhead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Every simulated
// Result is checked: against the digest pinned for seed 42, and for other
// seeds for agreement across the cycles of the run (daemon jobs against
// the same replay run in-process).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		wl      = flag.String("workload", "", "figs, tenants or daemon")
		seed    = flag.Int64("seed", pinnedSeed, "workload seed (>= 1)")
		seconds = flag.Int("seconds", 30, "how long to measure")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		spans   = flag.String("spans", "", "directory the traced run writes its spans into")
		commit  = flag.String("commit", "unknown", "source revision stamped into the output")
	)
	flag.Parse()
	run, ok := workloads[*wl]
	switch {
	case !ok:
		fail(fmt.Errorf("unknown workload %q (want figs, tenants or daemon)", *wl))
	case *seed < 1:
		fail(fmt.Errorf("seed %d must be >= 1", *seed))
	case *seconds < 1:
		fail(fmt.Errorf("seconds %d must be >= 1", *seconds))
	case *traced != 0 && *traced != 1:
		fail(fmt.Errorf("trace %d must be 0 or 1", *traced))
	}

	env := envStamp(*commit)
	b, _ := json.Marshal(env)
	fmt.Printf("env %s\n", b)

	o := opts{seed: *seed, seconds: *seconds, traced: *traced == 1, cal: newCalibrator()}
	if o.traced {
		o.tr = newTracer()
		activeTracer.Store(o.tr)
		o.tr.begin(*wl)
	}
	rep, err := run(context.Background(), o)
	if err != nil {
		fail(err)
	}
	if o.traced {
		o.tr.end()
		if *spans != "" {
			path := filepath.Join(*spans, fmt.Sprintf("spans-%s-seed%d.json", *wl, *seed))
			if err := o.tr.writeSpans(path, env); err != nil {
				fail(err)
			}
			fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: host calibration kernel median %.2f ms (reference %v)\n", o.cal.medianMS(), calRef)
	for _, name := range rep.order {
		m := rep.metrics[name]
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if rep.failed != 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// opts are one run's settings.
type opts struct {
	seed    int64
	seconds int
	traced  bool
	tr      *tracer
	cal     *calibrator
}

var workloads = map[string]func(context.Context, opts) (*report, error){
	"figs":    runFigs,
	"tenants": runTenants,
	"daemon":  runDaemon,
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's outcome: operations attempted and failed, and the
// metrics in the order they are printed.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	order             []string
}

func (r *report) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// envStamp records what the numbers were measured on.
func envStamp(commit string) map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"commit":     commit,
	}
}
