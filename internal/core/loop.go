package core

import (
	"context"

	"ipusim/internal/cache"
	"ipusim/internal/scheme"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// stride is how many requests the request loop goes between context-
// cancellation polls: one mask check per request, one channel poll per
// stride. Progress callbacks get an additional immediate poll so a
// cancelling callback stops the replay at that exact request.
const stride = 64

// gate is one stream's queue-depth gate: the completion times of its last
// len(ring) requests, reused round-robin, so request k of the stream is
// not issued before request k-len(ring) of the same stream completed.
type gate struct {
	ring []int64
	next int
}

// replayLoop is the state of the one request loop every replay runs
// through: open loop (no gates), a single closed-loop stream (one gate)
// and a multi-tenant schedule (one gate per tenant). The request source
// is read in place — exactly one of tr and sched is set — so no trace is
// ever copied into a schedule.
type replayLoop struct {
	tr    *trace.Trace
	sched *workload.Schedule

	// sch serves requests directly unless wb, a DRAM write buffer in
	// front of it, is set.
	sch scheme.Scheme
	wb  *cache.WriteBuffer

	// gates is nil for open loop, else indexed by tenant (a single stream
	// is tenant 0). accums is non-nil only for tenant runs.
	gates  []gate
	accums []tenantAccum

	// last is the latest completion time seen so far.
	last int64
}

// len returns the request count of the loop's source.
func (l *replayLoop) len() int {
	if l.sched != nil {
		return l.sched.Len()
	}
	return l.tr.Len()
}

// name returns the label results carry for the loop's source.
func (l *replayLoop) name() string {
	if l.sched != nil {
		return l.sched.Name()
	}
	return l.tr.Name
}

// step replays request i and returns its completion time.
func (l *replayLoop) step(i int) int64 {
	var issue, offset int64
	var size, ti int
	var write bool
	if l.sched != nil {
		r := l.sched.At(i)
		issue, offset, size, write, ti = r.Time, r.Offset, int(r.Size), r.Write, int(r.Tenant)
	} else {
		r := l.tr.At(i)
		issue, offset, size, write = r.Time, r.Offset, r.Size, r.Op == trace.OpWrite
	}
	var g *gate
	if l.gates != nil {
		g = &l.gates[ti]
		if e := g.ring[g.next]; e > issue {
			issue = e
		}
	}
	var end int64
	switch {
	case l.wb == nil && write:
		end = l.sch.Write(issue, offset, size)
	case l.wb == nil:
		end = l.sch.Read(issue, offset, size)
	case write:
		end = l.wb.Write(issue, offset, size)
	default:
		end = l.wb.Read(issue, offset, size)
	}
	if g != nil {
		g.ring[g.next] = end
		if g.next++; g.next == len(g.ring) {
			g.next = 0
		}
	}
	if end > l.last {
		l.last = end
	}
	if l.accums != nil {
		l.accums[ti].record(issue, end, write)
	}
	return end
}

// replay runs the request loop to completion, polling ctx once per stride
// and right after every progress callback, and delivering the OnProgress
// callback a Progress snapshot every progressEvery requests and at
// completion. A cancelled run returns ctx's error with a nil Result —
// except a tenant run, whose partial Result carries every tenant's
// progress. The device is not pooled while the loop runs: it rejoins the
// pool only at a clean stop (the end of the trace with the final check
// passing, or a cancel between requests).
func (s *Simulator) replay(ctx context.Context, l *replayLoop) (*Result, error) {
	pooled := s.pooled
	s.pooled = false
	done := ctx.Done()
	met := s.scheme.Metrics()
	fn, every := s.progress, s.progressEvery
	n := l.len()
	for i := 0; i < n; i++ {
		if done != nil && i%stride == 0 && stopped(done) {
			return s.stop(l, i, pooled, ctx.Err())
		}
		end := l.step(i)
		if fn != nil && ((i+1)%every == 0 || i+1 == n) {
			fn(Progress{Replayed: i + 1, Total: n, SimTime: end, GCs: met.GCs()})
			if done != nil && stopped(done) {
				return s.stop(l, i+1, pooled, ctx.Err())
			}
		}
	}
	if err := s.checkFinal(); err != nil {
		return nil, err
	}
	return s.stop(l, n, pooled, nil)
}

// stop ends a replay cleanly, between requests, after completed requests.
// It snapshots the run's Result — nil for a cancelled run (err set)
// unless it is a tenant run; a write buffer is then drained at the last
// completion time and its counters, drain flushes included, reported with
// the result. The device then rejoins the pool it came from.
func (s *Simulator) stop(l *replayLoop, completed int, pooled bool, err error) (*Result, error) {
	var res *Result
	if err == nil || l.accums != nil {
		res = s.Result(l.name(), completed)
		if l.wb != nil {
			l.wb.Drain(l.last)
			st := l.wb.Stats()
			res.WriteCache = &st
		}
		if l.accums != nil {
			l.tenantResults(res)
		}
	}
	s.pooled = pooled
	return res, err
}

// stopped polls a done channel without blocking.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
