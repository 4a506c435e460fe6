package core

import (
	"context"
	"encoding/json"
	"testing"

	"ipusim/internal/trace"
)

// canonical marshals a result for byte-comparison. Every field — including
// GCScanNS, which is driven by the engine's deterministic scan clock rather
// than the wall clock — must reproduce exactly between identical runs.
func canonical(t *testing.T, r *Result) string {
	t.Helper()
	c := *r
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunDeterministic replays the same generated trace through a fresh
// simulator twice per scheme and demands byte-identical reports: no map
// iteration order, wall clock or hidden global may leak into the results.
func TestRunDeterministic(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 7, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range SchemeNames {
		t.Run(name, func(t *testing.T) {
			once := func() string {
				cfg := DefaultConfig()
				cfg.Flash = smallFlash()
				cfg.Scheme = name
				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(tr)
				if err != nil {
					t.Fatal(err)
				}
				return canonical(t, res)
			}
			if a, b := once(), once(); a != b {
				t.Errorf("two runs of %s diverged:\n%s\n%s", name, a, b)
			}
		})
	}
}

// TestRunMatrixWorkerCountInvariant re-runs one matrix with one worker and
// with four: parallel scheduling must not change any result.
func TestRunMatrixWorkerCountInvariant(t *testing.T) {
	fc := smallFlash()
	run := func(workers int) []*Result {
		res, err := RunMatrixContext(context.Background(), MatrixSpec{
			Traces:  []string{"ts0", "wdev0"},
			Schemes: []string{"Baseline", "IPU"},
			Scale:   0.003,
			Flash:   &fc,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(4)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if a, b := canonical(t, serial[i]), canonical(t, parallel[i]); a != b {
			t.Errorf("(%s, %s) differs between 1 and 4 workers:\n%s\n%s",
				serial[i].Trace, serial[i].Scheme, a, b)
		}
	}
}
