package core

import (
	"context"
	"testing"

	"ipusim/internal/flash"
)

// TestPaperShapes is the reproduction's integration check: it replays two
// write-heavy traces against all three schemes at the evaluation operating
// point and asserts the orderings the paper's figures report. Absolute
// numbers are not compared — the substrate is a simulator, not the
// authors' testbed — but who wins, and in which direction, must match.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape check")
	}
	fc := flash.DefaultConfig()
	fc.PreFillMLC = true
	results, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces: []string{"ts0", "wdev0"},
		Scale:  0.05,
		Flash:  &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := NewResultSet(results)
	pe := rs.PEs()[0]

	for _, tr := range rs.Traces() {
		base := rs.Get(tr, "Baseline", pe)
		mga := rs.Get(tr, "MGA", pe)
		ipu := rs.Get(tr, "IPU", pe)
		if base == nil || mga == nil || ipu == nil {
			t.Fatalf("%s: missing results", tr)
		}

		// Fig. 5: IPU has the best I/O response time; it beats MGA on both
		// reads and writes (paper: -17.9% write, -6.3% read vs MGA).
		if !(ipu.AvgLatency < base.AvgLatency) {
			t.Errorf("%s Fig5: IPU overall %v !< Baseline %v", tr, ipu.AvgLatency, base.AvgLatency)
		}
		if !(ipu.AvgLatency < mga.AvgLatency) {
			t.Errorf("%s Fig5: IPU overall %v !< MGA %v", tr, ipu.AvgLatency, mga.AvgLatency)
		}
		if !(ipu.AvgWriteLatency < mga.AvgWriteLatency) {
			t.Errorf("%s Fig5: IPU write %v !< MGA %v", tr, ipu.AvgWriteLatency, mga.AvgWriteLatency)
		}
		if !(ipu.AvgReadLatency < mga.AvgReadLatency) {
			t.Errorf("%s Fig5: IPU read %v !< MGA %v", tr, ipu.AvgReadLatency, mga.AvgReadLatency)
		}

		// Fig. 8: read error rate Baseline < IPU < MGA, with IPU's penalty
		// small (paper: +3.5% avg) and MGA's large (paper: +14% avg).
		if !(base.ReadErrorRate < ipu.ReadErrorRate && ipu.ReadErrorRate < mga.ReadErrorRate) {
			t.Errorf("%s Fig8 ordering: base=%g ipu=%g mga=%g", tr,
				base.ReadErrorRate, ipu.ReadErrorRate, mga.ReadErrorRate)
		}
		if rel := ipu.ReadErrorRate/base.ReadErrorRate - 1; rel > 0.10 {
			t.Errorf("%s Fig8: IPU penalty %.1f%% too large", tr, rel*100)
		}
		if rel := mga.ReadErrorRate/base.ReadErrorRate - 1; rel < 0.05 {
			t.Errorf("%s Fig8: MGA penalty %.1f%% too small", tr, rel*100)
		}

		// Fig. 9: page utilisation MGA (~100%) > IPU > Baseline.
		if !(mga.PageUtilization > ipu.PageUtilization && ipu.PageUtilization > base.PageUtilization) {
			t.Errorf("%s Fig9 ordering: base=%.3f ipu=%.3f mga=%.3f", tr,
				base.PageUtilization, ipu.PageUtilization, mga.PageUtilization)
		}
		if mga.PageUtilization < 0.95 {
			t.Errorf("%s Fig9: MGA utilisation %.3f, want ~1", tr, mga.PageUtilization)
		}

		// Fig. 10a: SLC erases Baseline > IPU > MGA.
		if !(base.SLCErases > ipu.SLCErases && ipu.SLCErases > mga.SLCErases) {
			t.Errorf("%s Fig10a ordering: base=%d ipu=%d mga=%d", tr,
				base.SLCErases, ipu.SLCErases, mga.SLCErases)
		}

		// Fig. 11: mapping table Baseline (1.0) < IPU (small) < MGA (large).
		if base.MappingNormalized != 1.0 {
			t.Errorf("%s Fig11: baseline normalised %.4f", tr, base.MappingNormalized)
		}
		if !(ipu.MappingNormalized > 1.0 && ipu.MappingNormalized < 1.05) {
			t.Errorf("%s Fig11: IPU normalised %.4f out of (1, 1.05)", tr, ipu.MappingNormalized)
		}
		if mga.MappingNormalized < 1.10 {
			t.Errorf("%s Fig11: MGA normalised %.4f, want > 1.10", tr, mga.MappingNormalized)
		}

		// Fig. 6: partial programming lets MGA and IPU complete a larger
		// share of writes in the SLC cache than Baseline.
		if !(ipu.SLCWriteShare() > base.SLCWriteShare()) {
			t.Errorf("%s Fig6: IPU SLC share %.3f !> Baseline %.3f", tr,
				ipu.SLCWriteShare(), base.SLCWriteShare())
		}

		// Fig. 7: Work blocks carry the largest share of IPU's writes.
		work := ipu.LevelShare(flash.LevelWork)
		if work < ipu.LevelShare(flash.LevelMonitor) || work < ipu.LevelShare(flash.LevelHot) {
			t.Errorf("%s Fig7: Work share %.3f not dominant", tr, work)
		}

		// Fig. 12: the ISR victim scan costs the same order of magnitude
		// as greedy (paper: +1.2%); bound it at 10x per GC.
		if base.SLCGCs > 0 && ipu.SLCGCs > 0 {
			basePer := base.GCScanNS / base.SLCGCs
			ipuPer := ipu.GCScanNS / ipu.SLCGCs
			if ipuPer > 10*basePer+10_000 {
				t.Errorf("%s Fig12: ISR scan %dns/GC vs greedy %dns/GC", tr, ipuPer, basePer)
			}
		}
	}
}

// TestPaperShapesPESweep checks Figs. 13-14: latency and error rate grow
// with device wear, and the IPU-vs-MGA improvement persists at every use
// stage ("fine scalability" in the paper's words).
func TestPaperShapesPESweep(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape check")
	}
	fc := flash.DefaultConfig()
	fc.PreFillMLC = true
	results, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces:      []string{"wdev0"},
		Schemes:     []string{"MGA", "IPU"},
		PEBaselines: []int{1000, 2000, 4000, 8000},
		Scale:       0.03,
		Flash:       &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := NewResultSet(results)
	var prevBER float64
	var prevLat int64
	for _, pe := range rs.PEs() {
		ipu := rs.Get("wdev0", "IPU", pe)
		mga := rs.Get("wdev0", "MGA", pe)
		if ipu.ReadErrorRate <= prevBER {
			t.Errorf("Fig14: BER not increasing at PE %d", pe)
		}
		if int64(ipu.AvgReadLatency) < prevLat {
			t.Errorf("Fig13: read latency decreased at PE %d", pe)
		}
		prevBER = ipu.ReadErrorRate
		prevLat = int64(ipu.AvgReadLatency)
		if ipu.ReadErrorRate >= mga.ReadErrorRate {
			t.Errorf("PE %d: IPU BER %g !< MGA %g", pe, ipu.ReadErrorRate, mga.ReadErrorRate)
		}
	}
}
