package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed calibration. The benchmark runs on shared machines whose
// speed swings by up to 2x within a minute as other tenants load the host
// (measured on a 2-vCPU Xeon: the same tenants study ran at 10.5 and at 21
// jobs/s, minutes apart, with no steal time reported). A fixed kernel, which
// shares no code with the program under test, is therefore timed on every
// CPU around each timed window, and every host time of the window is
// scaled to the speed at which the kernel takes calRef. A change to the
// program moves the window but not the kernel, so it still shows.

// calRef is the kernel's time at the reference speed. On the 2-vCPU Xeon
// the benchmark was written on, the kernel took from 14 ms (host idle) to
// 36 ms (host loaded).
const calRef = 20 * time.Millisecond

// calWords is each CPU's working set: 16 MiB, larger than the last-level
// cache, like the simulator's device arrays.
const calWords = 1 << 22

// calibrator owns the kernel's buffers, allocated once per run so that
// calibrating allocates nothing.
type calibrator struct {
	bufs    [][]uint32
	samples []time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		b := make([]uint32, calWords)
		for j := range b {
			b[j] = uint32(j) * 2654435761
		}
		c.bufs = append(c.bufs, b)
	}
	return c
}

// kernel mixes dependent random loads and stores over buf with integer
// arithmetic, a fixed amount of work.
func kernel(buf []uint32, seed uint32) uint32 {
	const mask = calWords - 1
	x, acc := seed, uint32(0)
	for i := uint32(0); i < 1<<21; i++ {
		x = x*1664525 + 1013904223
		v := buf[(x>>5)&mask]
		acc += v ^ x
		buf[(acc>>3)&mask] = v + i
		if acc&7 == 3 {
			acc = acc*31 + v
		}
	}
	return acc
}

// slowdown runs the kernel five times on every CPU at once and returns
// the median time over calRef: 2 means the host runs at half the
// reference speed. Each sample is kept for the report.
func (c *calibrator) slowdown() float64 {
	var ts [5]time.Duration
	for r := range ts {
		start := time.Now()
		var wg sync.WaitGroup
		for i, b := range c.bufs {
			wg.Add(1)
			go func(b []uint32, seed uint32) {
				defer wg.Done()
				kernel(b, seed)
			}(b, uint32(i+1))
		}
		wg.Wait()
		ts[r] = time.Since(start)
	}
	sort.Slice(ts[:], func(i, j int) bool { return ts[i] < ts[j] })
	c.samples = append(c.samples, ts[2])
	return float64(ts[2]) / float64(calRef)
}

// medianMS is the median kernel time of the run so far, in milliseconds.
func (c *calibrator) medianMS() float64 {
	ms := make([]float64, len(c.samples))
	for i, d := range c.samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return median(ms)
}

// scale converts a host duration measured at slowdown f to reference time.
func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) / f)
}
