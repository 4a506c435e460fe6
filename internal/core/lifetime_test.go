package core

import (
	"context"
	"strings"
	"testing"
)

func TestLifetimeScoreBindingConstraint(t *testing.T) {
	ratio := EnduranceRatio{Name: "x", SLCCycles: 100, HDCycles: 10}
	// 10 SLC blocks, 10 HD blocks.
	r := &Result{SLCErases: 100, MLCErases: 0}
	// SLC wear: 100/10/100 = 0.1; HD wear 0.
	if got := LifetimeScore(r, 10, 10, ratio); got != 0.1 {
		t.Errorf("SLC-bound score = %g", got)
	}
	r = &Result{SLCErases: 0, MLCErases: 100}
	// HD wear: 100/10/10 = 1.0 dominates.
	if got := LifetimeScore(r, 10, 10, ratio); got != 1.0 {
		t.Errorf("HD-bound score = %g", got)
	}
	// Mixed: the max wins.
	r = &Result{SLCErases: 100, MLCErases: 5}
	// SLC 0.1 vs HD 0.05.
	if got := LifetimeScore(r, 10, 10, ratio); got != 0.1 {
		t.Errorf("mixed score = %g", got)
	}
}

func TestEnduranceRatiosMatchPaper(t *testing.T) {
	// §4.3.2: 10:1 for MLC, 100:1 for TLC, 1000:1 for QLC.
	wantRatios := []float64{10, 100, 1000}
	if len(EnduranceRatios) != 3 {
		t.Fatalf("ratios = %d", len(EnduranceRatios))
	}
	for i, r := range EnduranceRatios {
		if got := r.SLCCycles / r.HDCycles; got != wantRatios[i] {
			t.Errorf("%s ratio = %g, want %g", r.Name, got, wantRatios[i])
		}
	}
}

func TestLifetimeTable(t *testing.T) {
	fc := smallFlash()
	res, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces: []string{"ts0"}, Scale: 0.003, Flash: &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := Lifetime(NewResultSet(res), fc.SLCBlocks(), fc.MLCBlocks())
	// 3 cell technologies x 5 schemes.
	if len(tab.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(tab.Rows))
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MLC (10:1)", "TLC (100:1)", "QLC (1000:1)", "vsBaseline"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
