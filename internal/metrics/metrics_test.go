package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestLatencySummaryBasics(t *testing.T) {
	var s LatencySummary
	if s.Mean() != 0 || s.Percentile(0.5) != 0 {
		t.Error("empty summary must report zeros")
	}
	s.Record(1000)
	s.Record(3000)
	s.Record(2000)
	if s.Count != 3 || s.Sum != 6000 || s.Max != 3000 {
		t.Errorf("summary: %+v", s)
	}
	if s.Mean() != 2000 {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestLatencySummaryNegativeClamp(t *testing.T) {
	var s LatencySummary
	s.Record(-5)
	if s.Count != 1 || s.Sum != 0 {
		t.Errorf("negative record mishandled: %+v", s)
	}
}

func TestPercentileApproximation(t *testing.T) {
	var s LatencySummary
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		// Uniform in [0, 1ms).
		s.Record(rng.Int63n(int64(time.Millisecond)))
	}
	p50 := float64(s.Percentile(0.5))
	// The histogram is power-of-two bucketed, so allow 2x slack.
	if p50 < float64(time.Millisecond)/8 || p50 > float64(time.Millisecond) {
		t.Errorf("p50 = %v implausible for uniform [0,1ms)", time.Duration(int64(p50)))
	}
	if s.Percentile(0) > s.Percentile(1) {
		t.Error("percentiles must be monotone")
	}
	if s.Percentile(-1) != s.Percentile(0) || s.Percentile(2) != s.Percentile(1) {
		t.Error("out-of-range percentiles must clamp")
	}
}

func TestPercentileOrdering(t *testing.T) {
	var s LatencySummary
	for i := 0; i < 1000; i++ {
		s.Record(int64(i) * 1000)
	}
	p10, p90 := s.Percentile(0.1), s.Percentile(0.9)
	if p10 >= p90 {
		t.Errorf("p10 (%v) >= p90 (%v)", p10, p90)
	}
}

func TestMeanAccumulator(t *testing.T) {
	var m MeanAccumulator
	if m.Mean() != 0 {
		t.Error("empty mean must be zero")
	}
	m.Add(1)
	m.Add(2)
	m.Add(3)
	if m.Mean() != 2 {
		t.Errorf("mean = %v", m.Mean())
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "trace", "latency")
	tab.AddRow("ts0", "123.45us")
	tab.AddRow("a-longer-name") // short row: padded
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== Demo ==", "trace", "latency", "ts0", "123.45us", "a-longer-name"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestFormatters(t *testing.T) {
	if got := FormatDuration(1500 * time.Nanosecond); got != "1.50us" {
		t.Errorf("FormatDuration = %q", got)
	}
	if got := FormatSci(0.00028); got != "2.800e-04" {
		t.Errorf("FormatSci = %q", got)
	}
	if got := FormatPct(0.527); got != "52.7%" {
		t.Errorf("FormatPct = %q", got)
	}
}
