package main

import (
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: ipusim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMatrix              	       5	 135795009 ns/op	   1301209 requests/s	115779942 B/op	   12760 allocs/op
BenchmarkHostWrite/Baseline-8 	 1026051	       231.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkParseMSR 	      32	   6852701 ns/op	  93.29 MB/s	 5976338 B/op	   52792 allocs/op
PASS
ok  	ipusim	1.001s
`

func TestParse(t *testing.T) {
	rec, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Goos != "linux" || rec.Goarch != "amd64" {
		t.Errorf("env = %s/%s, want linux/amd64", rec.Goos, rec.Goarch)
	}
	if len(rec.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %d, want 3", len(rec.Benchmarks))
	}
	m := rec.Benchmarks[0]
	if m.Name != "BenchmarkMatrix" || m.Iterations != 5 {
		t.Errorf("first = %s x%d, want BenchmarkMatrix x5", m.Name, m.Iterations)
	}
	if m.NsPerOp != 135795009 || m.BytesPerOp != 115779942 || m.AllocsPerOp != 12760 {
		t.Errorf("matrix metrics = %v/%v/%v", m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	if m.Metrics["requests/s"] != 1301209 {
		t.Errorf("requests/s = %v, want 1301209", m.Metrics["requests/s"])
	}
	// The -8 GOMAXPROCS suffix must be trimmed so hosts with different
	// core counts compare by name.
	if got := rec.Benchmarks[1].Name; got != "BenchmarkHostWrite/Baseline" {
		t.Errorf("name = %q, want suffix trimmed", got)
	}
	if got := rec.Benchmarks[1].NsPerOp; got != 231.6 {
		t.Errorf("fractional ns/op = %v, want 231.6", got)
	}
	if got := rec.Benchmarks[2].Metrics["MB/s"]; got != 93.29 {
		t.Errorf("MB/s = %v, want 93.29", got)
	}
	if rec.NumCPU != runtime.NumCPU() || rec.GoVersion != runtime.Version() {
		t.Errorf("env = %d CPUs, %q; want the parsing process's", rec.NumCPU, rec.GoVersion)
	}

	// The trimmed suffix is the run's GOMAXPROCS; no suffix means 1.
	const at4 = "BenchmarkA-4 \t 10\t 100 ns/op\nBenchmarkB/sub-4 \t 10\t 5 ns/op\n"
	rec4, err := Parse(strings.NewReader(at4))
	if err != nil {
		t.Fatal(err)
	}
	if rec4.GOMAXPROCS != 4 || rec4.Benchmarks[1].Name != "BenchmarkB/sub" {
		t.Errorf("GOMAXPROCS = %d, second name %q; want 4, BenchmarkB/sub", rec4.GOMAXPROCS, rec4.Benchmarks[1].Name)
	}
	rec1, err := Parse(strings.NewReader("BenchmarkA \t 10\t 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rec1.GOMAXPROCS != 1 {
		t.Errorf("GOMAXPROCS without suffix = %d, want 1", rec1.GOMAXPROCS)
	}
}

// TestParseMergesCounts feeds a -count 3 style output and checks repeated
// runs collapse into one mean entry per name.
func TestParseMergesCounts(t *testing.T) {
	const counted = `BenchmarkA 	 10	 100 ns/op	 50 req/s	 8 B/op	 2 allocs/op
BenchmarkA 	 10	 200 ns/op	 70 req/s	 8 B/op	 2 allocs/op
BenchmarkA 	 10	 300 ns/op	 90 req/s	 8 B/op	 2 allocs/op
BenchmarkB 	 1	 5 ns/op
`
	rec, err := Parse(strings.NewReader(counted))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2 after merging", len(rec.Benchmarks))
	}
	a := rec.Benchmarks[0]
	if a.NsPerOp != 200 || a.Iterations != 30 || a.BytesPerOp != 8 || a.AllocsPerOp != 2 {
		t.Errorf("merged = %+v, want mean ns 200 over 30 iterations", a)
	}
	if a.Metrics["req/s"] != 70 {
		t.Errorf("merged req/s = %v, want 70", a.Metrics["req/s"])
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok ipusim 0.1s\n")); err == nil {
		t.Fatal("no benchmark lines accepted")
	}
}

func bench(name string, ns, bytes, allocs float64) *Benchmark {
	return &Benchmark{Name: name, Iterations: 1, NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
}

func TestCompare(t *testing.T) {
	// The old record lacks GoVersion, so only GOMAXPROCS and NumCPU can
	// be noted.
	oldRec := &Record{GOMAXPROCS: 1, NumCPU: 2, Benchmarks: []*Benchmark{
		bench("BenchmarkA", 100, 50, 10),
		bench("BenchmarkGone", 1, 1, 1),
		bench("BenchmarkZero", 100, 0, 0),
	}}
	cases := []struct {
		name      string
		newRec    *Record
		regressed bool
		note      bool
	}{
		{"within threshold", &Record{Benchmarks: []*Benchmark{bench("BenchmarkA", 110, 55, 10)}}, false, false},
		{"ns regression", &Record{Benchmarks: []*Benchmark{bench("BenchmarkA", 130, 50, 10)}}, true, false},
		{"alloc regression", &Record{Benchmarks: []*Benchmark{bench("BenchmarkA", 100, 50, 13)}}, true, false},
		{"improvement", &Record{Benchmarks: []*Benchmark{bench("BenchmarkA", 10, 5, 0)}}, false, false},
		{"new benchmark no baseline", &Record{Benchmarks: []*Benchmark{bench("BenchmarkNew", 1e9, 1e9, 1e6)}}, false, false},
		{"zero-alloc guarantee lost", &Record{Benchmarks: []*Benchmark{bench("BenchmarkZero", 100, 0, 1)}}, true, false},
		{"environment differs", &Record{GOMAXPROCS: 4, NumCPU: 8, GoVersion: "go1.0",
			Benchmarks: []*Benchmark{bench("BenchmarkA", 100, 50, 10)}}, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			if got := Compare(&sb, oldRec, c.newRec, 0.20, 0.20); got != c.regressed {
				t.Errorf("regressed = %v, want %v\nreport:\n%s", got, c.regressed, sb.String())
			}
			const note = "note: run environment differs: GOMAXPROCS 1 -> 4, NumCPU 2 -> 8\n"
			if got := strings.Contains(sb.String(), note); got != c.note {
				t.Errorf("note printed = %v, want %v\nreport:\n%s", got, c.note, sb.String())
			}
		})
	}
}

// TestCompareSplitThresholds checks the time and space gates are
// independent: a loose time threshold (cross-machine CI) must still catch
// a deterministic allocation regression, and vice versa.
func TestCompareSplitThresholds(t *testing.T) {
	oldRec := &Record{Benchmarks: []*Benchmark{bench("BenchmarkA", 100, 100, 100)}}
	slower := &Record{Benchmarks: []*Benchmark{bench("BenchmarkA", 300, 100, 100)}}
	fatter := &Record{Benchmarks: []*Benchmark{bench("BenchmarkA", 100, 100, 150)}}
	var sb strings.Builder
	if Compare(&sb, oldRec, slower, 5.0, 0.10) {
		t.Error("3x slower flagged despite loose time threshold")
	}
	if !Compare(&sb, oldRec, fatter, 5.0, 0.10) {
		t.Error("50% more allocs passed the tight space threshold")
	}
	if !Compare(&sb, oldRec, slower, 0.20, 5.0) {
		t.Error("3x slower passed the tight time threshold")
	}
}
