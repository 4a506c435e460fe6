// Command benchjson converts `go test -bench` output into a stable JSON
// record and compares two such records for regressions.
//
// Parse mode (default) reads benchmark output on stdin and writes one JSON
// document with every benchmark's ns/op, B/op, allocs/op and custom
// metrics. A second benchmark output may be embedded as the baseline, so
// one file records a before/after pair:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH_0.json
//	benchjson -o BENCH_0.json -baseline before.txt < after.txt
//	benchjson -note "hot-path overhaul" < after.txt
//
// Compare mode checks a new record against an old one and exits non-zero
// when any shared benchmark regressed beyond its threshold — the CI gate:
//
//	benchjson -compare -time-threshold 0.20 -space-threshold 0.10 old.json new.json
//
// ns/op is gated by -time-threshold; B/op and allocs/op by
// -space-threshold. The split matters in CI: allocation counts are
// deterministic across machines, so they take a tight threshold even when
// the baseline was recorded on different hardware, while wall-time
// comparisons across machines need a loose one. A benchmark whose baseline
// was zero allocations regresses on any allocation at all. Benchmarks
// present in only one record are reported but never fail the gate.
//
// A record also notes its run environment: the GOMAXPROCS the benchmarks
// ran at (from the name's -N suffix; 1 when there is none), and the CPU
// count and Go version of the process that parsed them. Compare prints a
// note when the two records' environments differ; the note never fails
// the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark line, normalised.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds any extra unit pairs (requests/s, MB/s, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Record is the document benchjson emits: environment header lines and
// the run environment, every parsed benchmark, and optionally the
// baseline the run is measured against.
type Record struct {
	Goos       string       `json:"goos,omitempty"`
	Goarch     string       `json:"goarch,omitempty"`
	CPU        string       `json:"cpu,omitempty"`
	GOMAXPROCS int          `json:"gomaxprocs,omitempty"`
	NumCPU     int          `json:"num_cpu,omitempty"`
	GoVersion  string       `json:"go_version,omitempty"`
	Note       string       `json:"note,omitempty"`
	Benchmarks []*Benchmark `json:"benchmarks"`
	Baseline   *Record      `json:"baseline,omitempty"`
}

func main() {
	var (
		out      = flag.String("o", "", "output file (default stdout)")
		note     = flag.String("note", "", "freeform note stored in the record")
		baseline = flag.String("baseline", "", "bench output file to embed as the record's baseline")
		compare  = flag.Bool("compare", false, "compare two JSON records: benchjson -compare old.json new.json")
		timeThr  = flag.Float64("time-threshold", 0.20, "relative ns/op regression threshold for -compare")
		spaceThr = flag.Float64("space-threshold", 0.10, "relative B/op and allocs/op regression threshold for -compare")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *timeThr, *spaceThr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	rec, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	rec.Note = *note
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		base, err := Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		rec.Baseline = base
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
}

// Parse reads `go test -bench` output. Unrecognised lines (PASS, ok,
// test log chatter) are skipped. Repeated runs of one benchmark (`-count
// N`) are merged into a single entry by arithmetic mean, so a record
// always holds one entry per benchmark name. GOMAXPROCS comes from the
// first result line's -N suffix.
func Parse(r io.Reader) (*Record, error) {
	rec := &Record{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rec.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rec.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, procs, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		if b != nil {
			if rec.GOMAXPROCS == 0 {
				rec.GOMAXPROCS = procs
			}
			rec.Benchmarks = append(rec.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rec.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	rec.Benchmarks = mergeRuns(rec.Benchmarks)
	return rec, nil
}

// mergeRuns averages repeated runs of the same benchmark, preserving
// first-seen order. Iteration counts are summed.
func mergeRuns(in []*Benchmark) []*Benchmark {
	byName := make(map[string]*Benchmark, len(in))
	counts := make(map[string]float64, len(in))
	var out []*Benchmark
	for _, b := range in {
		m, ok := byName[b.Name]
		if !ok {
			byName[b.Name] = b
			counts[b.Name] = 1
			out = append(out, b)
			continue
		}
		m.Iterations += b.Iterations
		m.NsPerOp += b.NsPerOp
		m.BytesPerOp += b.BytesPerOp
		m.AllocsPerOp += b.AllocsPerOp
		for unit, v := range b.Metrics {
			if m.Metrics == nil {
				m.Metrics = make(map[string]float64)
			}
			m.Metrics[unit] += v
		}
		counts[b.Name]++
	}
	for _, m := range out {
		n := counts[m.Name]
		if n == 1 {
			continue
		}
		m.NsPerOp /= n
		m.BytesPerOp /= n
		m.AllocsPerOp /= n
		for unit := range m.Metrics {
			m.Metrics[unit] /= n
		}
	}
	return out
}

// parseLine decodes one result line:
//
//	BenchmarkName-8   	 5	 135795009 ns/op	 1301209 requests/s	 115779942 B/op	 12760 allocs/op
//
// The name is followed by the iteration count and (value, unit) pairs.
// parseLine also returns the GOMAXPROCS the line ran at.
func parseLine(line string) (*Benchmark, int, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, 0, nil // a benchmark name echoed without results (b.Run header)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, 0, nil // "BenchmarkFoo ... FAIL" or similar
	}
	name, procs := splitProcSuffix(fields[0])
	b := &Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad value %q", fields[i])
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = val
		}
	}
	return b, procs, nil
}

// splitProcSuffix drops the -GOMAXPROCS suffix so records taken on hosts
// with different core counts still match by name, and returns it; go test
// omits the suffix at GOMAXPROCS 1.
func splitProcSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}

// loadRecord reads one JSON record from disk.
func loadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// compareFiles reports each shared benchmark's delta and returns whether
// any metric regressed beyond its threshold.
func compareFiles(w io.Writer, oldPath, newPath string, timeThr, spaceThr float64) (bool, error) {
	oldRec, err := loadRecord(oldPath)
	if err != nil {
		return false, err
	}
	newRec, err := loadRecord(newPath)
	if err != nil {
		return false, err
	}
	return Compare(w, oldRec, newRec, timeThr, spaceThr), nil
}

// Compare writes a per-benchmark report and returns whether anything
// regressed beyond its threshold (timeThr for ns/op, spaceThr for B/op and
// allocs/op).
func Compare(w io.Writer, oldRec, newRec *Record, timeThr, spaceThr float64) bool {
	if d := envDiff(oldRec, newRec); d != "" {
		fmt.Fprintf(w, "note: run environment differs: %s\n", d)
	}
	oldBy := make(map[string]*Benchmark, len(oldRec.Benchmarks))
	for _, b := range oldRec.Benchmarks {
		oldBy[b.Name] = b
	}
	names := make([]string, 0, len(newRec.Benchmarks))
	newBy := make(map[string]*Benchmark, len(newRec.Benchmarks))
	for _, b := range newRec.Benchmarks {
		names = append(names, b.Name)
		newBy[b.Name] = b
	}
	sort.Strings(names)

	regressed := false
	for _, name := range names {
		nb := newBy[name]
		ob, ok := oldBy[name]
		if !ok {
			fmt.Fprintf(w, "%-50s new benchmark, no baseline\n", name)
			continue
		}
		for _, m := range []struct {
			unit      string
			old, new  float64
			threshold float64
		}{
			{"ns/op", ob.NsPerOp, nb.NsPerOp, timeThr},
			{"B/op", ob.BytesPerOp, nb.BytesPerOp, spaceThr},
			{"allocs/op", ob.AllocsPerOp, nb.AllocsPerOp, spaceThr},
		} {
			verdict := delta(m.old, m.new, m.threshold)
			if verdict != "" {
				fmt.Fprintf(w, "%-50s %-10s %14.1f -> %-14.1f %s\n", name, m.unit, m.old, m.new, verdict)
				if verdict == "REGRESSED" {
					regressed = true
				}
			}
		}
	}
	for _, b := range oldRec.Benchmarks {
		if _, ok := newBy[b.Name]; !ok {
			fmt.Fprintf(w, "%-50s removed (was in baseline)\n", b.Name)
		}
	}
	if regressed {
		fmt.Fprintf(w, "\nFAIL: regression beyond thresholds (time %.0f%%, space %.0f%%)\n", timeThr*100, spaceThr*100)
	} else {
		fmt.Fprintf(w, "\nOK: no regression beyond thresholds (time %.0f%%, space %.0f%%)\n", timeThr*100, spaceThr*100)
	}
	return regressed
}

// envDiff lists the run-environment fields both records carry with
// different values, or "" when there are none.
func envDiff(oldRec, newRec *Record) string {
	count := func(n int) string {
		if n == 0 {
			return ""
		}
		return strconv.Itoa(n)
	}
	var diffs []string
	for _, f := range []struct{ name, old, new string }{
		{"GOMAXPROCS", count(oldRec.GOMAXPROCS), count(newRec.GOMAXPROCS)},
		{"NumCPU", count(oldRec.NumCPU), count(newRec.NumCPU)},
		{"GoVersion", oldRec.GoVersion, newRec.GoVersion},
	} {
		if f.old != "" && f.new != "" && f.old != f.new {
			diffs = append(diffs, fmt.Sprintf("%s %s -> %s", f.name, f.old, f.new))
		}
	}
	return strings.Join(diffs, ", ")
}

// delta classifies one metric change. Empty means unremarkable (within
// threshold, or both zero); "REGRESSED" fails the gate; "improved" is
// informational.
func delta(old, new float64, threshold float64) string {
	if old == 0 && new == 0 {
		return ""
	}
	if old == 0 {
		return "REGRESSED" // zero-alloc / zero-byte guarantee lost
	}
	rel := (new - old) / old
	switch {
	case rel > threshold:
		return "REGRESSED"
	case rel < -threshold:
		return "improved"
	default:
		return ""
	}
}
