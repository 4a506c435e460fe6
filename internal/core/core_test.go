package core

import (
	"context"
	"strings"
	"testing"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/metrics"
	"ipusim/internal/trace"
)

// smallFlash returns a geometry small enough for quick trace replays while
// still triggering plenty of GC.
func smallFlash() flash.Config {
	c := flash.DefaultConfig()
	c.Blocks = 512
	c.LogicalSubpages = c.MLCSubpages() * 6 / 10
	return c
}

func TestNewRejectsUnknownScheme(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = "FancyFTL"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestNewRejectsBadFlashConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flash.Blocks = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("bad flash config accepted")
	}
}

func TestNewAllSchemes(t *testing.T) {
	for _, s := range SchemeNames {
		cfg := DefaultConfig()
		cfg.Flash = smallFlash()
		cfg.Scheme = s
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if sim.Scheme().Name() != s {
			t.Errorf("scheme name %q, want %q", sim.Scheme().Name(), s)
		}
	}
}

func TestRunSmallTrace(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 1, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Flash = smallFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != "ts0" || res.Scheme != "IPU" {
		t.Errorf("result labels: %+v", res)
	}
	if res.Requests != tr.Len() {
		t.Errorf("requests = %d, want %d", res.Requests, tr.Len())
	}
	if res.AvgLatency <= 0 || res.AvgWriteLatency <= 0 || res.AvgReadLatency <= 0 {
		t.Errorf("latencies not recorded: %+v", res)
	}
	if res.ReadErrorRate <= 0 {
		t.Error("no read error rate")
	}
	if res.SLCPrograms == 0 {
		t.Error("no SLC programs")
	}
	if res.MappingNormalized < 1 {
		t.Errorf("mapping normalised %.3f < 1", res.MappingNormalized)
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flash = smallFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := trace.New("bad", trace.Record{Time: 5, Size: 0})
	if _, err := sim.Run(bad); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestWritePassthrough(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flash = smallFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wEnd, err := sim.Write(0, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if wEnd <= 0 {
		t.Fatal("write did not advance time")
	}
	rEnd, err := sim.Read(wEnd, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if rEnd <= wEnd {
		t.Fatal("read did not advance time")
	}
}

func TestRunMatrixSmall(t *testing.T) {
	fc := smallFlash()
	res, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces:  []string{"ts0", "ads"},
		Schemes: []string{"Baseline", "IPU"},
		Scale:   0.003,
		Flash:   &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d, want 4", len(res))
	}
	// Deterministic order: trace-major, then scheme.
	wantOrder := []struct{ tr, sc string }{
		{"ts0", "Baseline"}, {"ts0", "IPU"}, {"ads", "Baseline"}, {"ads", "IPU"},
	}
	for i, w := range wantOrder {
		if res[i].Trace != w.tr || res[i].Scheme != w.sc {
			t.Errorf("result %d = (%s,%s), want (%s,%s)", i, res[i].Trace, res[i].Scheme, w.tr, w.sc)
		}
	}
}

func TestRunMatrixUnknownTrace(t *testing.T) {
	if _, err := RunMatrixContext(context.Background(), MatrixSpec{Traces: []string{"nope"}}); err == nil {
		t.Fatal("unknown trace accepted")
	}
}

func TestRunMatrixDeterministic(t *testing.T) {
	fc := smallFlash()
	run := func() []*Result {
		res, err := RunMatrixContext(context.Background(), MatrixSpec{
			Traces: []string{"wdev0"}, Schemes: []string{"IPU"},
			Scale: 0.003, Flash: &fc, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a[0].AvgLatency != b[0].AvgLatency || a[0].SLCErases != b[0].SLCErases ||
		a[0].ReadErrorRate != b[0].ReadErrorRate {
		t.Error("matrix runs not deterministic")
	}
}

func TestRunMatrixPESweep(t *testing.T) {
	fc := smallFlash()
	res, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces: []string{"ts0"}, Schemes: []string{"IPU"},
		PEBaselines: []int{1000, 8000},
		Scale:       0.003, Flash: &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	lo, hi := res[0], res[1]
	if lo.PEBaseline != 1000 || hi.PEBaseline != 8000 {
		t.Fatalf("PE labels: %d, %d", lo.PEBaseline, hi.PEBaseline)
	}
	if hi.ReadErrorRate <= lo.ReadErrorRate {
		t.Errorf("BER must grow with P/E: %g vs %g", lo.ReadErrorRate, hi.ReadErrorRate)
	}
	if hi.AvgReadLatency <= lo.AvgReadLatency {
		t.Errorf("read latency must grow with P/E: %v vs %v", lo.AvgReadLatency, hi.AvgReadLatency)
	}
}

func TestResultSetAndFigures(t *testing.T) {
	fc := smallFlash()
	res, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces: []string{"ts0", "lun2"},
		Scale:  0.003, Flash: &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := NewResultSet(res)
	if len(rs.Traces()) != 2 || len(rs.Schemes()) != 5 || len(rs.PEs()) != 1 {
		t.Fatalf("result set shape: %v %v %v", rs.Traces(), rs.Schemes(), rs.PEs())
	}
	if rs.Get("ts0", "IPU", rs.PEs()[0]) == nil {
		t.Fatal("lookup failed")
	}
	if rs.Get("ts0", "IPU", 99) != nil {
		t.Fatal("phantom result")
	}

	tables := []*metrics.Table{
		Fig5(rs), Fig6(rs), Fig7(rs), Fig8(rs), Fig9(rs), Fig10(rs),
		Fig11(rs), Fig12(rs), Fig13(rs), Fig14(rs),
	}
	for i, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("figure table %d empty (%s)", i, tab.Title)
		}
		var sb strings.Builder
		if err := tab.Render(&sb); err != nil {
			t.Errorf("render %s: %v", tab.Title, err)
		}
	}
	// Fig 7 is IPU-only, one row per trace.
	if got := len(Fig7(rs).Rows); got != 2 {
		t.Errorf("Fig7 rows = %d, want 2", got)
	}
	// Fig 12 omits MGA.
	for _, row := range Fig12(rs).Rows {
		if row[1] == "MGA" {
			t.Error("Fig12 must compare Baseline and IPU only")
		}
	}
}

func TestStaticTables(t *testing.T) {
	t1, err := Table1(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 6 {
		t.Errorf("Table1 rows = %d", len(t1.Rows))
	}
	cfg := flash.DefaultConfig()
	t2 := Table2(&cfg)
	if len(t2.Rows) < 10 {
		t.Errorf("Table2 rows = %d", len(t2.Rows))
	}
	t3, err := Table3(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 6 {
		t.Errorf("Table3 rows = %d", len(t3.Rows))
	}
	em := errmodel.Default()
	f2 := Fig2(&em, []int{1000, 2000, 4000, 8000})
	if len(f2.Rows) != 4 {
		t.Errorf("Fig2 rows = %d", len(f2.Rows))
	}
}

func TestResultWearSpread(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Flash = smallFlash()
	cfg.Scheme = "Baseline"
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLCErases == 0 {
		t.Fatal("no erases; wear test ineffective")
	}
	if res.SLCWearMax < res.SLCWearMin {
		t.Errorf("wear bounds inverted: [%d, %d]", res.SLCWearMin, res.SLCWearMax)
	}
	// Static wear levelling keeps every block participating. Under bursty
	// arrivals the readiness gating reuses whichever blocks finished
	// erasing, so the band is wider than under a sustained pace; bound it
	// at a small multiple of the mean rather than a tight band.
	mean := int(res.SLCErases) / cfg.Flash.SLCBlocks()
	if res.SLCWearMax > 4*(mean+1) {
		t.Errorf("max wear %d far above mean %d", res.SLCWearMax, mean)
	}
	if res.SLCWearMin == 0 {
		t.Errorf("some block never erased despite %d erases over %d blocks", res.SLCErases, cfg.Flash.SLCBlocks())
	}
}
