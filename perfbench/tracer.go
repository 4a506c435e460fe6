package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipusim/internal/core"
	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/scheme"
)

// The per-layer timing decorator. Every comparison scheme is registered a
// second time as "traced/<scheme>": a wrapper that times the builder,
// Clone, Restore, Write and Read calls core's own replay loops and
// snapshot cache make, without touching internal/*. Builds, clones and
// restores are rare (hundreds per run) and each gets a span; the ~10^7
// Write/Read calls are added into per-cell counters instead.

const tracedPrefix = "traced/"

// activeTracer receives the spans and counters of every traced scheme.
// The registry builders cannot take parameters, so the run installs its
// tracer here before it replays any traced scheme.
var activeTracer atomic.Pointer[tracer]

func init() {
	for _, name := range core.SchemeNames {
		name := name
		core.RegisterScheme(tracedPrefix+name, func(fc *flash.Config, em *errmodel.Model) (scheme.Scheme, error) {
			tr := activeTracer.Load()
			start := tr.now()
			sim, err := core.NewFresh(core.Config{Flash: *fc, Error: *em, Scheme: name})
			if err != nil {
				return nil, err
			}
			tr.snapshotSpan("snapshot.build", start, tr.now())
			return &tracedScheme{inner: sim.Scheme(), tr: tr, sess: &session{}}, nil
		})
	}
}

// bareScheme strips the decorator prefix from a scheme label.
func bareScheme(name string) string { return strings.TrimPrefix(name, tracedPrefix) }

// tracedScheme wraps one scheme instance. sess collects the counters of
// the cell currently replaying on the instance; only that cell's goroutine
// touches it until the session is closed.
type tracedScheme struct {
	inner scheme.Scheme
	tr    *tracer
	sess  *session
}

// session is one simulator's use of a scheme instance: from the Clone or
// Restore that handed it out to the end of its cell.
type session struct {
	open    bool
	gid     int64
	cell    int   // span ID of the cell (or workload) that owns it
	readyNS int64 // end of the Clone/Restore, on the tracer clock
	started bool
	opsOpen int64 // engine operation count when the session opened

	writeCalls, gcCalls, readCalls int64
	writeNS, gcNS, readNS          int64
	scheduleNS                     int64
}

func (t *tracedScheme) Name() string             { return t.inner.Name() }
func (t *tracedScheme) Device() *scheme.Device   { return t.inner.Device() }
func (t *tracedScheme) Metrics() *scheme.Metrics { return t.inner.Metrics() }

// firstCall ends the session's schedule phase: the time from the clone or
// restore that handed out the instance to the replay's first scheme call.
func (t *tracedScheme) firstCall(s *session, start time.Time) {
	s.started = true
	s.scheduleNS = t.tr.since(start) - s.readyNS
}

// gcWork sums every counter a garbage collection moves. All of them only
// grow, so a changed sum means the write ran (part of) a collection.
func gcWork(m *scheme.Metrics) int64 {
	return m.SLCGCs + m.MLCGCs + m.PreemptiveGCs + m.InPlaceSwitches +
		m.SwitchBackReclaims + m.GCMovedSubpages + m.GCBlocksScanned
}

func (t *tracedScheme) Write(now int64, offset int64, size int) int64 {
	m := t.inner.Metrics()
	before := gcWork(m)
	start := time.Now()
	end := t.inner.Write(now, offset, size)
	d := int64(time.Since(start))
	s := t.sess
	if !s.started {
		t.firstCall(s, start)
	}
	if gcWork(m) != before {
		s.gcCalls++
		s.gcNS += d
	} else {
		s.writeCalls++
		s.writeNS += d
	}
	return end
}

func (t *tracedScheme) Read(now int64, offset int64, size int) int64 {
	start := time.Now()
	end := t.inner.Read(now, offset, size)
	s := t.sess
	s.readNS += int64(time.Since(start))
	if !s.started {
		t.firstCall(s, start)
	}
	s.readCalls++
	return end
}

func (t *tracedScheme) Clone() scheme.Scheme {
	start := t.tr.now()
	c := &tracedScheme{inner: t.inner.Clone(), tr: t.tr, sess: &session{}}
	t.tr.openSession(c, "snapshot.clone", start)
	return c
}

func (t *tracedScheme) Restore(from scheme.Scheme) bool {
	f, ok := from.(*tracedScheme)
	if !ok {
		return false
	}
	// The previous user's counters are read before the state they count
	// is overwritten.
	t.tr.closeSession(t)
	start := t.tr.now()
	if !t.inner.Restore(f.inner) {
		return false
	}
	t.tr.openSession(t, "snapshot.restore", start)
	return true
}

// engineOps is the timing engine's flash operation count.
func engineOps(s scheme.Scheme) int64 {
	var n int64
	for _, c := range s.Device().Eng.Stats.Count {
		n += c
	}
	return n
}

// span is one timed interval: times are nanoseconds since the run began,
// Parent is the ID of the span that caused it (0 for the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerTotals are the per-layer counters and busy times of one traced
// phase.
type layerTotals struct {
	builds, clones, restores       int64
	buildNS, cloneNS, restoreNS    int64
	writeCalls, gcCalls, readCalls int64
	writeNS, gcNS, readNS          int64
	scheduleNS, schedules          int64
	flashOps                       int64
	cells, cellNS, loopSelfNS      int64
	synthNS, synthRequests         int64
}

// openCell is a cell in flight on one goroutine.
type openCell struct {
	id               int
	start            int64
	snapNS, schemeNS int64
}

// tracer records spans in memory and aggregates the decorator's counters.
// Spans and counters are attributed to the cell running on the calling
// goroutine: core builds, clones and restores a cell's scheme instance on
// the goroutine that replays it.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	phases   []int                   // open workload/phase spans, innermost last
	cells    map[int64]*openCell     // by goroutine
	sessions map[int64]*tracedScheme // open session by goroutine
	tot      layerTotals
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cells: map[int64]*openCell{}, sessions: map[int64]*tracedScheme{}}
}

func (tr *tracer) now() int64              { return int64(time.Since(tr.t0)) }
func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.t0)) }

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 17 [running]:"). It runs only at span boundaries.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// addLocked appends a span and returns its ID. Callers hold mu.
func (tr *tracer) addLocked(parent int, name string, start, end int64) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// begin opens a workload or phase span, nested in the innermost open one;
// end closes the innermost.
func (tr *tracer) begin(name string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := tr.now()
	tr.phases = append(tr.phases, tr.addLocked(tr.phaseLocked(), name, t, t))
}

func (tr *tracer) end() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := len(tr.phases) - 1
	tr.spans[tr.phases[n]-1].End = tr.now()
	tr.phases = tr.phases[:n]
}

// phaseLocked is the innermost open phase span (0 before the first).
func (tr *tracer) phaseLocked() int {
	if n := len(tr.phases); n > 0 {
		return tr.phases[n-1]
	}
	return 0
}

// parentLocked is the span that owns work on goroutine g: its cell, or the
// current phase for work outside any cell (set-up, daemon workers).
func (tr *tracer) parentLocked(g int64) (int, *openCell) {
	if c := tr.cells[g]; c != nil {
		return c.id, c
	}
	return tr.phaseLocked(), nil
}

// snapshotSpan records a template build, clone or restore.
func (tr *tracer) snapshotSpan(name string, start, end int64) {
	g := goid()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	parent, cell := tr.parentLocked(g)
	tr.addLocked(parent, name, start, end)
	if cell != nil {
		cell.snapNS += end - start
	}
	d := end - start
	switch name {
	case "snapshot.build":
		tr.tot.builds++
		tr.tot.buildNS += d
	case "snapshot.clone":
		tr.tot.clones++
		tr.tot.cloneNS += d
	case "snapshot.restore":
		tr.tot.restores++
		tr.tot.restoreNS += d
	}
}

// openSession hands instance s to the cell on the calling goroutine,
// closing whatever session that goroutine still had open.
func (tr *tracer) openSession(s *tracedScheme, name string, start int64) {
	end := tr.now()
	tr.snapshotSpan(name, start, end)
	g := goid()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if prev := tr.sessions[g]; prev != nil && prev != s {
		tr.closeLocked(prev)
	}
	parent, _ := tr.parentLocked(g)
	*s.sess = session{open: true, gid: g, cell: parent, readyNS: end, opsOpen: engineOps(s.inner)}
	tr.sessions[g] = s
}

// closeSession folds an instance's open session into the totals.
func (tr *tracer) closeSession(s *tracedScheme) {
	tr.mu.Lock()
	tr.closeLocked(s)
	tr.mu.Unlock()
}

func (tr *tracer) closeLocked(s *tracedScheme) {
	ss := s.sess
	if !ss.open {
		return
	}
	ss.open = false
	if tr.sessions[ss.gid] == s {
		delete(tr.sessions, ss.gid)
	}
	t := &tr.tot
	t.writeCalls += ss.writeCalls
	t.gcCalls += ss.gcCalls
	t.readCalls += ss.readCalls
	t.writeNS += ss.writeNS
	t.gcNS += ss.gcNS
	t.readNS += ss.readNS
	if ss.started {
		t.scheduleNS += ss.scheduleNS
		t.schedules++
	}
	t.flashOps += engineOps(s.inner) - ss.opsOpen
	for _, c := range tr.cells {
		if c.id == ss.cell {
			c.schemeNS += ss.writeNS + ss.gcNS + ss.readNS
		}
	}
}

// beginCell opens a cell span on the calling goroutine.
func (tr *tracer) beginCell(name string) {
	g := goid()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := tr.now()
	tr.cells[g] = &openCell{id: tr.addLocked(tr.phaseLocked(), name, t, t), start: t}
}

// endCell closes the calling goroutine's cell and its scheme session, and
// charges the cell's self time (cell time minus the snapshot and scheme
// time inside it) to the replay loop.
func (tr *tracer) endCell() {
	g := goid()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if s := tr.sessions[g]; s != nil {
		tr.closeLocked(s)
	}
	c := tr.cells[g]
	delete(tr.cells, g)
	t := tr.now()
	tr.spans[c.id-1].End = t
	tr.tot.cells++
	tr.tot.cellNS += t - c.start
	tr.tot.loopSelfNS += t - c.start - c.snapNS - c.schemeNS
}

// record adds a finished span under the current phase: a daemon job as
// its client saw it, or a trace synthesis.
func (tr *tracer) record(name string, start, end int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.addLocked(tr.phaseLocked(), name, start, end)
}

// synth records one trace synthesis.
func (tr *tracer) synth(start, end int64, requests int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.addLocked(tr.phaseLocked(), "trace.synth", start, end)
	tr.tot.synthNS += end - start
	tr.tot.synthRequests += int64(requests)
}

// take closes every session still open (daemon workers have no cell
// boundary) and returns the phase totals, starting the next phase at
// zero.
func (tr *tracer) take() layerTotals {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.sessions {
		tr.closeLocked(s)
	}
	t := tr.tot
	tr.tot = layerTotals{}
	return t
}

// writeSpans writes every recorded span as one JSON document.
func (tr *tracer) writeSpans(path string, env map[string]string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b, err := json.Marshal(map[string]any{"env": env, "spans": tr.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
