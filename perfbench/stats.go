package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"ipusim/internal/core"
	"ipusim/internal/server"
)

// failedLatency stands for a job that failed or was refused: it misses
// every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// percentile returns the nearest-rank q-quantile of ds in milliseconds.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// goRuntime reads the Go runtime's cumulative allocation and GC counters.
func goRuntime() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// resultTotals sums the simulated counters per-layer metrics are built
// from.
type resultTotals struct {
	hostSubpages, moved, collections, scanned int64
	readSLC, readMLC, retries                 int64
	cacheHits, cacheMisses, coalesced         int64
	flushes, cacheReads, cacheReadHits        int64
}

func (t *resultTotals) add(r *core.Result) {
	t.hostSubpages += r.HostSubpagesWritten
	t.moved += r.GCMovedSubpages
	t.collections += r.SLCGCs + r.MLCGCs
	t.scanned += r.GCBlocksScanned
	t.readSLC += r.SubpageReadsSLC
	t.readMLC += r.SubpageReadsMLC
	t.retries += r.ReadRetries
	if wc := r.WriteCache; wc != nil {
		t.cacheHits += wc.WriteHits
		t.cacheMisses += wc.WriteMisses
		t.coalesced += wc.CoalescedBytes
		t.flushes += wc.Flushes()
		t.cacheReads += wc.ReadHits + wc.ReadMisses
		t.cacheReadHits += wc.ReadHits
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// layers is what one workload's traced phase measured, per cycle: the
// decorator's totals, the simulated counters, the cell pools, the daemon's
// job samples and the Go runtime.
type layers struct {
	cycles   int
	lt       layerTotals
	rt       resultTotals
	cellNS   int64
	wallNS   int64
	slotsNS  int64
	workers  int
	jobs     []jobSample
	stats    server.Stats
	allocB   uint64
	gcCycles uint64
	// untraced and traced are the workload's throughput with tracing off
	// and on, the base of the tracing overhead.
	untraced, traced float64
	// calMS is the median time of the host calibration kernel.
	calMS float64
}

// report sets every per-layer metric, each averaged per cycle and each
// ratio beside its base.
func (l *layers) report(rep *report) {
	n := float64(l.cycles)
	per := func(v int64) float64 { return float64(v) / n }
	lt, rt := l.lt, l.rt
	rep.set("trace.synth_s", "s", seconds(lt.synthNS)/n)
	rep.set("trace.requests", "count", per(lt.synthRequests))
	rep.set("snapshot.builds", "count", per(lt.builds))
	rep.set("snapshot.build_s", "s", seconds(lt.buildNS)/n)
	rep.set("snapshot.clones", "count", per(lt.clones))
	rep.set("snapshot.clone_s", "s", seconds(lt.cloneNS)/n)
	rep.set("snapshot.restores", "count", per(lt.restores))
	rep.set("snapshot.restore_s", "s", seconds(lt.restoreNS)/n)
	sims := lt.clones + lt.restores
	rep.set("snapshot.simulators", "count", per(sims))
	rep.set("snapshot.hit_ratio", "ratio", ratio(float64(sims-lt.builds), float64(sims)))

	rep.set("scheme.write.calls", "count", per(lt.writeCalls))
	rep.set("scheme.write.busy_s", "s", seconds(lt.writeNS)/n)
	rep.set("scheme.gc.calls", "count", per(lt.gcCalls))
	rep.set("scheme.gc.busy_s", "s", seconds(lt.gcNS)/n)
	rep.set("scheme.gc.collections", "count", per(rt.collections))
	rep.set("scheme.gc.moved_subpages", "count", per(rt.moved))
	rep.set("scheme.gc.blocks_scanned", "count", per(rt.scanned))
	rep.set("scheme.gc.host_subpages", "count", per(rt.hostSubpages))
	if rt.hostSubpages > 0 {
		rep.set("scheme.gc.write_amp", "ratio", 1+ratio(float64(rt.moved), float64(rt.hostSubpages)))
	} else {
		rep.set("scheme.gc.write_amp", "ratio", 0)
	}
	rep.set("scheme.read.calls", "count", per(lt.readCalls))
	rep.set("scheme.read.busy_s", "s", seconds(lt.readNS)/n)
	rep.set("scheme.read.subpages", "count", per(rt.readSLC+rt.readMLC))
	rep.set("scheme.read.retries", "count", per(rt.retries))
	rep.set("scheme.read.slc_hit_ratio", "ratio", ratio(float64(rt.readSLC), float64(rt.readSLC+rt.readMLC)))
	rep.set("engine.flash_ops", "count", per(lt.flashOps))

	rep.set("cache.write_segments", "count", per(rt.cacheHits+rt.cacheMisses))
	rep.set("cache.write_hit_ratio", "ratio", ratio(float64(rt.cacheHits), float64(rt.cacheHits+rt.cacheMisses)))
	rep.set("cache.coalesced_mb", "MB", float64(rt.coalesced)/(1<<20)/n)
	rep.set("cache.flushes", "count", per(rt.flushes))
	rep.set("cache.reads", "count", per(rt.cacheReads))
	rep.set("cache.read_hits", "count", per(rt.cacheReadHits))

	rep.set("core.cells", "count", per(lt.cells))
	rep.set("core.cell_s", "s", seconds(l.cellNS)/n)
	rep.set("core.loop_self_s", "s", seconds(lt.loopSelfNS)/n)
	rep.set("core.wall_s", "s", seconds(l.wallNS)/n)
	rep.set("core.workers", "count", float64(l.workers))
	rep.set("core.worker_util", "ratio", ratio(float64(l.cellNS), float64(l.slotsNS)))
	rep.set("workload.schedule_s", "s", seconds(lt.scheduleNS)/n)

	rep.set("server.submitted", "count", float64(l.stats.Submitted))
	rep.set("server.executed", "count", float64(l.stats.Executed))
	rep.set("server.rejected", "count", float64(l.stats.Rejected))
	rep.set("server.cache_hit_ratio", "ratio", ratio(float64(l.stats.CacheHits), float64(l.stats.Submitted)))
	var queue, run, transport []time.Duration
	for _, j := range l.jobs {
		if j.ok {
			queue, run, transport = append(queue, j.queue), append(run, j.run), append(transport, j.transport)
		}
	}
	rep.set("server.queue_wait_ms.p50", "ms", percentile(queue, 0.50))
	rep.set("server.queue_wait_ms.p99", "ms", percentile(queue, 0.99))
	rep.set("server.run_ms.p50", "ms", percentile(run, 0.50))
	rep.set("server.run_ms.p99", "ms", percentile(run, 0.99))
	rep.set("server.transport_ms.p50", "ms", percentile(transport, 0.50))
	rep.set("server.transport_ms.p99", "ms", percentile(transport, 0.99))

	rep.set("go.alloc_mb", "MB", float64(l.allocB)/(1<<20)/n)
	rep.set("go.gc_cycles", "count", float64(l.gcCycles)/n)
	rep.set("tracing.untraced_rate", "1/s", l.untraced)
	rep.set("tracing.traced_rate", "1/s", l.traced)
	rep.set("tracing.overhead_pct", "%", 100*(ratio(l.untraced, l.traced)-1))
	rep.set("host.calibration_ms", "ms", l.calMS)
}
