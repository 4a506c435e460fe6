package core

import (
	"sync"

	"ipusim/internal/flash"
	"ipusim/internal/scheme"
)

// The precondition-snapshot cache. Building a simulator is dominated by
// MLC preconditioning: PreFillMLC programs the entire logical space before
// the first request replays. Every sweep job used to pay that cost. The
// cache instead builds one preconditioned template per (structural flash
// config, scheme) and hands each job a deep clone — two bulk memory
// copies instead of O(device) program operations. Templates are read-only
// once built and cloning never mutates them, so any number of jobs can
// clone the same template concurrently.
//
// The key leaves out the parametric fields: PEBaseline and the whole
// error model. Building and pre-filling a device reads neither; only the
// read path's bit-error evaluation does. A copy handed out is therefore
// re-stamped with the caller's config and error model (Device.Restamp),
// which makes it bit-for-bit the device a from-scratch build would give.
// The four P/E levels of Figs. 13–14 share one template per scheme.

// snapshotKey identifies one device template. flash is the structural
// part of the config (flash.Config.Structural), a flat comparable struct,
// so the key is usable directly as a map key.
type snapshotKey struct {
	flash  flash.Config
	scheme string
}

// snapshotKeyOf returns the template key of cfg.
func snapshotKeyOf(cfg *Config) snapshotKey {
	return snapshotKey{flash: cfg.Flash.Structural(), scheme: cfg.Scheme}
}

// snapshotEntry is one cached template. ready closes when the build
// finishes; s and buildErr are immutable afterwards.
type snapshotEntry struct {
	ready    chan struct{}
	s        scheme.Scheme
	buildErr error
	built    bool   // guarded by snapshotMu; true once ready is closed
	lastUse  uint64 // guarded by snapshotMu; LRU clock value of last access

	// free holds released clones of this template (guarded by snapshotMu).
	// A pooled clone is handed to the next job after restoring it from the
	// template in place — one bulk copy pass reusing the clone's backing
	// stores, with no allocation and no garbage. Sweeps that release their
	// simulators therefore run the steady state entirely on recycled
	// devices.
	free []scheme.Scheme
}

// snapshotFreeCap bounds the released clones pooled per template, limiting
// retained memory to a few devices per key while covering the worker
// parallelism of a typical sweep.
const snapshotFreeCap = 4

// snapshotCacheCap bounds the number of resident templates. A template at
// the default geometry holds the whole flash array (~18 MB), and
// sensitivity sweeps create one key per structural config variation, so
// the cache evicts least-recently-used templates beyond the cap. P/E and
// error-model sweeps add no keys: a default Fig. 13/14 sweep over five
// schemes needs five templates.
var snapshotCacheCap = 16

var (
	snapshotMu    sync.Mutex
	snapshotCache = map[snapshotKey]*snapshotEntry{}
	snapshotClock uint64
	snapshotHits  uint64
	snapshotMiss  uint64
)

// ResetSnapshotCache drops every cached device template, releasing their
// memory. Safe to call concurrently with New; in-flight builds complete
// and are handed to their waiters but are no longer retained.
func ResetSnapshotCache() {
	snapshotMu.Lock()
	snapshotCache = map[snapshotKey]*snapshotEntry{}
	snapshotMu.Unlock()
}

// snapshotStats returns the hit/miss counters (for tests).
func snapshotStats() (hits, misses uint64) {
	snapshotMu.Lock()
	defer snapshotMu.Unlock()
	return snapshotHits, snapshotMiss
}

// snapshotScheme returns a fresh scheme instance for *cfg, cloned from the
// cached preconditioned template (building and caching it on first use).
// Pooled released clones are recycled by restoring them from the template
// instead of allocating a new copy. Either way the instance is re-stamped
// to read cfg.Flash and cfg.Error in place, so cfg must stay unchanged
// until the instance is released.
//
// A cache hit builds nothing, so cfg is validated here on every call,
// reporting what a from-scratch build would. That also makes a build
// error a function of the key alone: waiters on an in-flight build never
// inherit an error caused by another caller's parametric fields.
func snapshotScheme(cfg *Config) (scheme.Scheme, snapshotKey, error) {
	if err := cfg.validate(); err != nil {
		return nil, snapshotKey{}, err
	}
	key := snapshotKeyOf(cfg)

	snapshotMu.Lock()
	snapshotClock++
	var reuse scheme.Scheme
	e, ok := snapshotCache[key]
	if ok {
		e.lastUse = snapshotClock
		snapshotHits++
		if n := len(e.free); n > 0 && e.built && e.buildErr == nil {
			reuse = e.free[n-1]
			e.free[n-1] = nil
			e.free = e.free[:n-1]
		}
		snapshotMu.Unlock()
		<-e.ready
	} else {
		e = &snapshotEntry{ready: make(chan struct{}), lastUse: snapshotClock}
		snapshotCache[key] = e
		snapshotMiss++
		evictSnapshotsLocked()
		snapshotMu.Unlock()

		s, err := buildScheme(*cfg)
		snapshotMu.Lock()
		e.s, e.buildErr = s, err
		e.built = true
		// Build errors are not cached: a later call with the same bad
		// config re-derives the error instead of serving a stale one.
		if err != nil && snapshotCache[key] == e {
			delete(snapshotCache, key)
		}
		snapshotMu.Unlock()
		close(e.ready)
	}
	if e.buildErr != nil {
		return nil, key, e.buildErr
	}
	s := reuse
	if s == nil || !s.Restore(e.s) {
		s = e.s.Clone()
	}
	s.Device().Restamp(&cfg.Flash, &cfg.Error)
	return s, key, nil
}

// validate reports the error a from-scratch build of c would report, in
// the same order: an unknown scheme, then the error model, then the flash
// config.
func (c *Config) validate() error {
	if _, err := schemeBuilder(c.Scheme); err != nil {
		return err
	}
	if err := c.Error.Validate(); err != nil {
		return err
	}
	return c.Flash.Validate()
}

// Release hands the scheme instance back to its template's free pool for
// recycling and invalidates the simulator: every later Write, Read or Run
// on it fails with ErrReleased. Only callers that fully own the simulator
// (sweep cells, daemon jobs) may call it — a released device is
// overwritten in place by a later job. A device that did not come from the
// cache, whose template has been evicted or whose pool is full, or that a
// replay left mid-request (a panic, a failed final check) is dropped to
// the garbage collector instead, so `defer sim.Release()` is always safe.
// A pooled device is re-stamped with its template's config, so it keeps
// nothing of the released simulator alive. Release is idempotent.
func (s *Simulator) Release() {
	if s.scheme != nil && s.pooled {
		d := s.scheme.Device()
		d.Check = nil
		d.TestHooks.AfterHostWrite = nil
		snapshotMu.Lock()
		if e, ok := snapshotCache[s.key]; ok && e.built && e.buildErr == nil && len(e.free) < snapshotFreeCap {
			t := e.s.Device()
			d.Restamp(t.Cfg, t.Err)
			e.free = append(e.free, s.scheme)
		}
		snapshotMu.Unlock()
	}
	s.scheme = nil
}

// evictSnapshotsLocked drops least-recently-used built templates until the
// cache is within its cap. Entries still building are never evicted (their
// builder owns them); the cache may transiently exceed the cap while many
// distinct configs build at once. Callers hold snapshotMu.
func evictSnapshotsLocked() {
	for len(snapshotCache) > snapshotCacheCap {
		var victim snapshotKey
		var oldest uint64
		found := false
		for k, e := range snapshotCache {
			if !e.built {
				continue
			}
			if !found || e.lastUse < oldest {
				victim, oldest, found = k, e.lastUse, true
			}
		}
		if !found {
			return
		}
		delete(snapshotCache, victim)
	}
}
