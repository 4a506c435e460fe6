package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"ipusim/internal/cache"
	"ipusim/internal/check/golden"
	"ipusim/internal/trace"
)

// TestGoldenMetrics pins the full report of two traces across all five
// comparison schemes to snapshot files. Any behavioural drift — a changed
// GC decision, a latency model tweak, an accounting fix — fails here with a
// line diff. Accept intentional changes with:
//
//	go test ./internal/core -run Golden -update
func TestGoldenMetrics(t *testing.T) {
	fc := smallFlash()
	res, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces:  []string{"ts0", "wdev0"},
		Schemes: SchemeNames,
		Scale:   0.003,
		Flash:   &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("results = %d, want 10", len(res))
	}
	for _, r := range res {
		r := r
		t.Run(fmt.Sprintf("%s-%s", r.Trace, r.Scheme), func(t *testing.T) {
			snap := *r
			path := filepath.Join("testdata", "golden", fmt.Sprintf("%s-%s.json", r.Trace, r.Scheme))
			golden.Check(t, path, &snap)
		})
	}
}

// TestGoldenMultiTenant pins the multi-tenant spec engine: two tenants
// (ts0 weighted 3, wdev0 bursty) with the write-cache front-end on,
// replayed through IPU and IPS. The snapshot covers the per-tenant
// percentile summaries, the fairness index and the write-buffer counters,
// so any drift in the tenant scheduler, the QoS depth split, the buffer's
// flush decisions or the percentile math fails here with a line diff.
func TestGoldenMultiTenant(t *testing.T) {
	for _, schemeName := range []string{"IPU", "IPS"} {
		schemeName := schemeName
		t.Run("mt2-"+schemeName, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Flash = smallFlash()
			cfg.Scheme = schemeName
			sim, err := NewFresh(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec := twoTenantSpec()
			spec.WriteCache = &cacheConfig4MiB
			res, err := sim.RunClosedLoopSpec(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			snap := *res
			path := filepath.Join("testdata", "golden", fmt.Sprintf("mt2-%s.json", schemeName))
			golden.Check(t, path, &snap)
		})
	}
}

// cacheConfig4MiB is the golden runs' buffer configuration, shared so the
// snapshots stay tied to one explicit shape.
var cacheConfig4MiB = cache.Config{CapacityBytes: 4 << 20}

// TestGoldenNewSchemesAllTraces pins the two cross-paper schemes — IPS and
// IPU-PGC — across all six synthetic traces, so a drift in the in-place
// switch or preemptive-GC decision logic on any workload shape fails CI
// even where the two-trace matrix above would not exercise it.
func TestGoldenNewSchemesAllTraces(t *testing.T) {
	fc := smallFlash()
	res, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces:  trace.ProfileNames(),
		Schemes: []string{"IPS", "IPU-PGC"},
		Scale:   0.003,
		Flash:   &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(trace.ProfileNames()); len(res) != want {
		t.Fatalf("results = %d, want %d", len(res), want)
	}
	for _, r := range res {
		r := r
		if r.Trace == "ts0" || r.Trace == "wdev0" {
			continue // already pinned by TestGoldenMetrics
		}
		t.Run(fmt.Sprintf("%s-%s", r.Trace, r.Scheme), func(t *testing.T) {
			snap := *r
			path := filepath.Join("testdata", "golden", fmt.Sprintf("%s-%s.json", r.Trace, r.Scheme))
			golden.Check(t, path, &snap)
		})
	}
}

// TestGoldenClosedLoopStream pins the single-stream closed loop: ts0 at
// queue depth 8 through every scheme, with the write-cache front-end off
// and on. The depth gate binds on this trace, so any drift in the gate,
// the progress-free request path or the buffer's flush decisions fails
// here with a line diff.
func TestGoldenClosedLoopStream(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	arms := []struct {
		suffix string
		wc     *cache.Config
	}{
		{"", nil},
		{"-buffered", &cache.Config{CapacityBytes: 256 << 10}},
	}
	for _, schemeName := range SchemeNames {
		for _, arm := range arms {
			schemeName, arm := schemeName, arm
			t.Run("stream-"+schemeName+arm.suffix, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Flash = smallFlash()
				cfg.Scheme = schemeName
				sim, err := NewFresh(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.RunClosedLoopSpec(context.Background(),
					ClosedLoopSpec{Trace: tr, Depth: 8, WriteCache: arm.wc})
				if err != nil {
					t.Fatal(err)
				}
				snap := *res
				path := filepath.Join("testdata", "golden", fmt.Sprintf("stream-%s%s.json", schemeName, arm.suffix))
				golden.Check(t, path, &snap)
			})
		}
	}
}
