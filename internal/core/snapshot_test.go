package core

import (
	"reflect"
	"testing"

	"ipusim/internal/flash"
	"ipusim/internal/scheme"
	"ipusim/internal/trace"
)

// snapshotFlash is a small preconditioned geometry for clone-fidelity
// tests: big enough to exercise SLC GC and MLC overflow, small enough to
// replay in milliseconds.
func snapshotFlash() flash.Config {
	c := flash.DefaultConfig()
	c.Channels = 2
	c.ChipsPerChannel = 2
	c.Blocks = 64
	c.SLCRatio = 0.125
	c.SLCPagesPerBlock = 8
	c.MLCPagesPerBlock = 16
	c.LogicalSubpages = c.MLCSubpages() * 3 / 4
	c.PreFillMLC = true
	return c
}

// TestCloneMatchesFreshReplay is the clone-fidelity differential of the
// snapshot layer: for every paper scheme, a simulator built by cloning the
// cached preconditioned template must produce bit-for-bit the same Result
// as one constructed from scratch.
func TestCloneMatchesFreshReplay(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range SchemeNames {
		ResetSnapshotCache()
		cfg := DefaultConfig()
		cfg.Flash = snapshotFlash()
		cfg.Scheme = name

		fresh, err := NewFresh(cfg)
		if err != nil {
			t.Fatalf("%s: fresh build: %v", name, err)
		}
		want, err := fresh.Run(tr)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", name, err)
		}

		// First New builds the template and returns a clone of it; the
		// second clones the now-cached template. Both must match fresh.
		for i := 0; i < 2; i++ {
			sim, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: cached build %d: %v", name, i, err)
			}
			got, err := sim.Run(tr)
			if err != nil {
				t.Fatalf("%s: cached run %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cloned replay %d diverged from fresh:\n got %+v\nwant %+v", name, i, got, want)
			}
		}
	}
}

// TestCloneIndependence verifies that running one clone does not disturb
// the template: two clones taken before and after an interleaved run must
// replay identically.
func TestCloneIndependence(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["wdev0"], 5, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	ResetSnapshotCache()
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	cfg.Scheme = "IPU"

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := first.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := second.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("clone taken after a replay diverged:\n got %+v\nwant %+v", res2, res1)
	}
}

// TestRecycledCloneMatchesFreshReplay covers the pooled start-up path: a
// released device restored in place from the template must replay exactly
// like a fresh clone (and a fresh build).
func TestRecycledCloneMatchesFreshReplay(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range SchemeNames {
		ResetSnapshotCache()
		cfg := DefaultConfig()
		cfg.Flash = snapshotFlash()
		cfg.Scheme = name

		first, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := first.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		first.Release()

		// The next New must pop the released device from the pool and
		// restore it; its replay must be bit-for-bit identical.
		recycled, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recycled.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recycled replay diverged from first:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestReleaseDropsDeviceLeftMidReplay covers the release rule's other
// half: a replay that panics mid-request leaves its device inconsistent,
// so a deferred Release must drop it rather than pool it, and the next
// New must still replay exactly like a fresh build. (The cancel tests
// cover the clean-stop half: cancelled devices are still recycled.)
func TestReleaseDropsDeviceLeftMidReplay(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	ResetSnapshotCache()
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	cfg.Scheme = "IPU"

	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	sim.Scheme().Device().TestHooks.AfterHostWrite = func(*scheme.Device, int64) {
		if writes++; writes == 50 {
			panic("injected fault")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the injected fault did not panic")
			}
		}()
		defer sim.Release()
		_, _ = sim.Run(tr) // panics at the injected fault
	}()
	if free := poolFreeTotal(); free != 0 {
		t.Fatalf("%d devices pooled after a replay panicked mid-request, want 0", free)
	}

	fresh, err := NewFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	next, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := next.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay after the dropped device diverged from fresh:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotSkipsPreconditioning asserts the cache does what it is for:
// preconditioning runs once per template (inside the single cache miss),
// and warm start-up is a bounded-allocation clone, not an O(device
// programs) rebuild.
func TestSnapshotSkipsPreconditioning(t *testing.T) {
	ResetSnapshotCache()
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	cfg.Scheme = "MGA"

	h0, m0 := snapshotStats()
	for i := 0; i < 4; i++ {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := snapshotStats()
	if m1-m0 != 1 {
		t.Errorf("4 News caused %d template builds, want exactly 1", m1-m0)
	}
	if h1-h0 != 3 {
		t.Errorf("4 News caused %d cache hits, want 3", h1-h0)
	}

	// Warm start-up allocates the clone's backing stores — a fixed number
	// of allocations independent of preconditioning volume. A rebuild that
	// re-ran preFill would blow far past this bound on map/slice growth
	// inside the scheme constructors alone.
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 128 {
		t.Errorf("warm New allocates %.0f objects, want a bounded clone (<= 128)", allocs)
	}
}

// TestSnapshotCacheEvicts exercises the LRU bound. The three keys differ
// in SLCRatio, a structural field: PEBaseline no longer separates keys.
func TestSnapshotCacheEvicts(t *testing.T) {
	oldCap := snapshotCacheCap
	snapshotCacheCap = 2
	defer func() { snapshotCacheCap = oldCap }()
	ResetSnapshotCache()

	mk := func(slcRatio float64) Config {
		cfg := DefaultConfig()
		cfg.Flash = snapshotFlash()
		cfg.Flash.SLCRatio = slcRatio
		cfg.Scheme = "Baseline"
		return cfg
	}
	for _, r := range []float64{0.125, 0.1875, 0.25} {
		if _, err := New(mk(r)); err != nil {
			t.Fatal(err)
		}
	}
	snapshotMu.Lock()
	n := len(snapshotCache)
	snapshotMu.Unlock()
	if n > 2 {
		t.Errorf("cache holds %d templates, cap is 2", n)
	}

	// The oldest key (SLCRatio 0.125) was evicted: using it again is a
	// miss.
	_, m0 := snapshotStats()
	if _, err := New(mk(0.125)); err != nil {
		t.Fatal(err)
	}
	if _, m1 := snapshotStats(); m1-m0 != 1 {
		t.Errorf("evicted key was served from cache (misses %d)", m1-m0)
	}
}

// TestResetSnapshotCache verifies Reset forgets templates.
func TestResetSnapshotCache(t *testing.T) {
	ResetSnapshotCache()
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	cfg.Scheme = "IPU"
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	ResetSnapshotCache()
	_, m0 := snapshotStats()
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, m1 := snapshotStats(); m1-m0 != 1 {
		t.Error("New after Reset did not rebuild the template")
	}
}

// TestTraceCacheBoundedAndResettable exercises the trace-cache LRU bound
// and ResetTraceCache.
func TestTraceCacheBoundedAndResettable(t *testing.T) {
	oldCap := traceCacheCap
	traceCacheCap = 3
	defer func() { traceCacheCap = oldCap }()
	ResetTraceCache()

	for seed := int64(1); seed <= 5; seed++ {
		if _, err := cachedTrace("ts0", seed, 0.001); err != nil {
			t.Fatal(err)
		}
	}
	traceCacheMu.Lock()
	n := len(traceCacheMap)
	traceCacheMu.Unlock()
	if n > 3 {
		t.Errorf("trace cache holds %d entries, cap is 3", n)
	}

	// A cached key returns the identical instance (shared read-only).
	a, err := cachedTrace("ts0", 5, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cachedTrace("ts0", 5, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same key produced distinct trace instances")
	}

	ResetTraceCache()
	traceCacheMu.Lock()
	n = len(traceCacheMap)
	traceCacheMu.Unlock()
	if n != 0 {
		t.Errorf("trace cache holds %d entries after Reset", n)
	}
}
