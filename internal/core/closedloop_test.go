package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ipusim/internal/cache"
	"ipusim/internal/trace"
)

// burstTrace builds a trace whose requests all arrive at t=0 — the
// worst case for open-loop replay.
func burstTrace(n int) *trace.Trace {
	tr := trace.New("burst")
	for i := 0; i < n; i++ {
		tr.Append(trace.Record{
			Time: 0, Op: trace.OpWrite, Offset: int64(i) * 16384, Size: 16384,
		})
	}
	return tr
}

// smallSim builds a snapshot-cached simulator on the small test geometry.
func smallSim(t *testing.T) *Simulator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Flash = smallFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// runStream replays tr closed loop at the given depth.
func runStream(sim *Simulator, tr *trace.Trace, depth int) (*Result, error) {
	return sim.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: tr, Depth: depth})
}

func TestRunClosedLoopRejectsBadDepth(t *testing.T) {
	sim := smallSim(t)
	if _, err := runStream(sim, burstTrace(10), 0); err == nil {
		t.Fatal("depth 0 accepted")
	}
	bad := trace.New("bad", trace.Record{Size: 0})
	if _, err := runStream(sim, bad, 1); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestClosedLoopBoundsLatencyUnderSaturation(t *testing.T) {
	tr := burstTrace(800)
	open, err := smallSim(t).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := runStream(smallSim(t), tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Open-loop floods the device: queueing latency grows with n.
	// Closed-loop at depth 4 keeps per-request latency near service time.
	if closed.AvgWriteLatency*4 > open.AvgWriteLatency {
		t.Errorf("closed-loop %v not far below open-loop %v under saturation",
			closed.AvgWriteLatency, open.AvgWriteLatency)
	}
}

func TestClosedLoopDepthOneSerialises(t *testing.T) {
	res, err := runStream(smallSim(t), burstTrace(50), 1)
	if err != nil {
		t.Fatal(err)
	}
	// At depth 1 every request waits only for its own service: the mean
	// must sit near the SLC program time (300us + transfer), far from
	// queueing territory.
	if res.AvgWriteLatency > 2*smallFlash().Timing.SLCProgram {
		t.Errorf("depth-1 latency %v implausibly high", res.AvgWriteLatency)
	}
	if res.Requests != 50 {
		t.Errorf("requests = %d", res.Requests)
	}
}

// progressTick is the part of a Progress snapshot that must not depend on
// whether the loop was gated.
type progressTick struct {
	Replayed int
	SimTime  int64
	GCs      int64
}

// TestClosedLoopMatchesOpenLoopWhenIdle checks that open loop is the
// ungated case of the one request loop: a closed loop whose gate never
// binds must reproduce the open-loop run exactly — results, progress
// ticks and the request a cancelling callback stops at.
func TestClosedLoopMatchesOpenLoopWhenIdle(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		// With generous inter-arrival gaps the gate never binds: both
		// modes must produce identical results.
		tr := trace.New("idle")
		for i := 0; i < 100; i++ {
			tr.Append(trace.Record{
				Time: int64(i) * 10_000_000, Op: trace.OpWrite, Offset: int64(i) * 16384, Size: 16384,
			})
		}
		open, err := smallSim(t).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		closed, err := runStream(smallSim(t), tr, 8)
		if err != nil {
			t.Fatal(err)
		}
		if open.AvgWriteLatency != closed.AvgWriteLatency || open.SLCPrograms != closed.SLCPrograms {
			t.Errorf("idle-trace divergence: open %v/%d, closed %v/%d",
				open.AvgWriteLatency, open.SLCPrograms, closed.AvgWriteLatency, closed.SLCPrograms)
		}
	})

	t.Run("progress", func(t *testing.T) {
		// A depth no smaller than the trace never gates a busy trace
		// either: every gate slot is used once, from time zero.
		tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		record := func(ticks *[]progressTick) ProgressFunc {
			return func(p Progress) { *ticks = append(*ticks, progressTick{p.Replayed, p.SimTime, p.GCs}) }
		}
		var openTicks, closedTicks []progressTick
		sim := smallSim(t)
		sim.OnProgress(7, record(&openTicks))
		open, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		closedSim := smallSim(t)
		closedSim.OnProgress(7, record(&closedTicks))
		closed, err := closedSim.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: tr, Depth: tr.Len()})
		if err != nil {
			t.Fatal(err)
		}
		if want := (tr.Len() + 6) / 7; len(openTicks) != want {
			t.Fatalf("open loop delivered %d ticks, want %d", len(openTicks), want)
		}
		if !reflect.DeepEqual(closedTicks, openTicks) {
			t.Errorf("progress ticks diverged:\n got %+v\nwant %+v", closedTicks, openTicks)
		}
		if !reflect.DeepEqual(closed, open) {
			t.Errorf("ungated closed loop diverged from open loop:\n got %+v\nwant %+v", closed, open)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		// stopAt is not a multiple of the poll stride, so only the
		// post-callback poll can stop the loop there.
		const every, stopAt = 7, 42
		runs := map[string]func(ctx context.Context, sim *Simulator) (*Result, error){
			"open": func(ctx context.Context, sim *Simulator) (*Result, error) {
				return sim.RunContext(ctx, tr)
			},
			"stream": func(ctx context.Context, sim *Simulator) (*Result, error) {
				return sim.RunClosedLoopSpec(ctx, ClosedLoopSpec{Trace: tr, Depth: 8})
			},
			"tenants": func(ctx context.Context, sim *Simulator) (*Result, error) {
				return sim.RunClosedLoopSpec(ctx, twoTenantSpec())
			},
		}
		for name, run := range runs {
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var ticks []int
				sim := smallSim(t)
				sim.OnProgress(every, func(p Progress) {
					ticks = append(ticks, p.Replayed)
					if p.Replayed == stopAt {
						cancel()
					}
				})
				res, err := run(ctx, sim)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if len(ticks) != stopAt/every || ticks[len(ticks)-1] != stopAt {
					t.Fatalf("ticks %v: replay did not stop at request %d", ticks, stopAt)
				}
				if name != "tenants" {
					if res != nil {
						t.Fatalf("cancelled run returned a result: %+v", res)
					}
					return
				}
				done := 0
				for _, tn := range res.Tenants {
					done += tn.Requests
				}
				if res.Requests != stopAt || done != stopAt {
					t.Fatalf("partial result counts %d requests (%d by tenant), want %d", res.Requests, done, stopAt)
				}
			})
		}
	})
}

// TestClosedLoopSteadyStateZeroAllocs pins the zero-allocation property
// of the steady-state request loop with the write-cache front-end on:
// after warm-up, replaying requests through the production step path
// allocates nothing — for the single stream and for the multi-tenant
// schedule alike.
func TestClosedLoopSteadyStateZeroAllocs(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	buffer := &cache.Config{CapacityBytes: 256 << 10}
	specs := map[string]ClosedLoopSpec{
		"stream": {Trace: tr, Depth: 8, WriteCache: buffer},
		"tenants": {
			Depth:      16,
			Seed:       13,
			Scale:      0.003,
			Tenants:    DefaultTenantMixes()[0].Tenants,
			WriteCache: buffer,
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Flash = smallFlash()
			sim, err := NewFresh(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec.normalize()
			l, err := sim.newClosedLoop(&spec)
			if err != nil {
				t.Fatal(err)
			}
			n := l.len()
			replay := func() {
				for gi := range l.gates {
					g := &l.gates[gi]
					for i := range g.ring {
						g.ring[i] = 0
					}
					g.next = 0
				}
				for ti := range l.accums {
					l.accums[ti] = tenantAccum{}
				}
				l.last = 0
				for i := 0; i < n; i++ {
					l.step(i)
				}
				l.wb.Drain(l.last)
			}
			// Warm until the device's memo tables, the write-cache slab,
			// and the GC paths have reached their steady footprint.
			for i := 0; i < 4; i++ {
				replay()
			}
			if avg := testing.AllocsPerRun(3, replay); avg != 0 {
				t.Fatalf("steady-state %s loop allocates %.2f/replay, want 0", name, avg)
			}
		})
	}
}
