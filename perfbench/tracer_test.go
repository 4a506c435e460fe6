package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"ipusim/internal/core"
	"ipusim/internal/trace"
)

func replay(t *testing.T, schemeName string, tr *trace.Trace) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Scheme = schemeName
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	sim.Release()
	return res
}

// TestTracedSchemesMatchBare proves the per-layer timing does not change
// what it measures: for every scheme, replays through traced/<scheme> —
// the first through a template build and a clone, the second through a
// pooled restore — equal the bare scheme's Result except for the label
// and the mapping-table size core derives from it.
func TestTracedSchemesMatchBare(t *testing.T) {
	rec := newTracer()
	activeTracer.Store(rec)
	core.ResetSnapshotCache()
	t.Cleanup(core.ResetSnapshotCache)
	tr, err := core.SyntheticTrace("ts0", pinnedSeed, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range core.SchemeNames {
		want := digest(masked(replay(t, name, tr)))
		for _, via := range []string{"build and clone", "pooled restore"} {
			got := replay(t, tracedPrefix+name, tr)
			if got.Scheme != tracedPrefix+name {
				t.Errorf("%s via %s: scheme label %q", name, via, got.Scheme)
			}
			if digest(masked(got)) != want {
				t.Errorf("%s via %s: traced Result differs from the bare scheme's", name, via)
			}
		}
	}
	lt := rec.take()
	n := int64(len(core.SchemeNames))
	if lt.builds != n || lt.clones != n || lt.restores != n {
		t.Errorf("builds/clones/restores = %d/%d/%d, want %d each", lt.builds, lt.clones, lt.restores, n)
	}
	if lt.writeCalls+lt.gcCalls == 0 || lt.readCalls == 0 || lt.flashOps == 0 {
		t.Errorf("decorator counted no work: %+v", lt)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps BENCHMARK.json and the reports
// in step: an untraced report sets exactly the end-to-end metrics, a
// traced one exactly the per-layer metrics, with the declared units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, rep *report, want []struct{ Name, Unit string }) {
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			if got, ok := rep.metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s metric %s: reported %+v (present %t), want unit %s", kind, m.Name, got, ok, m.Unit)
			}
		}
		if len(rep.metrics) != len(want) {
			sort.Strings(names)
			sort.Strings(rep.order)
			t.Errorf("%s: reported %v, BENCHMARK.json lists %v", kind, rep.order, names)
		}
	}
	e2e := &report{}
	endToEnd(e2e, []time.Duration{1}, []window{{dur: 1, requests: 1, completed: 1, lat: []time.Duration{1}}})
	check("end-to-end", e2e, spec.EndToEnd)
	layer := &report{}
	(&layers{cycles: 1}).report(layer)
	check("per-layer", layer, spec.PerLayer)
}
