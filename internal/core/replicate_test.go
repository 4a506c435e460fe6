package core

import (
	"context"
	"strings"
	"testing"
)

func TestNewReplicaStats(t *testing.T) {
	s := newReplicaStats(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Errorf("empty stats: %+v", s)
	}
	s = newReplicaStats([]float64{2, 4, 6})
	if s.Mean != 4 || s.N != 3 {
		t.Errorf("stats: %+v", s)
	}
	if s.Std < 1.99 || s.Std > 2.01 { // sample std of {2,4,6} = 2
		t.Errorf("std = %g", s.Std)
	}
	if rel := s.RelStd(); rel < 49 || rel > 51 {
		t.Errorf("RelStd = %g", rel)
	}
	if (ReplicaStats{}).RelStd() != 0 {
		t.Error("zero-mean RelStd must be 0")
	}
}

func TestRunReplicatedRejectsTooFew(t *testing.T) {
	if _, err := RunReplicatedContext(context.Background(), MatrixSpec{}, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestRunReplicated(t *testing.T) {
	fc := smallFlash()
	reps, err := RunReplicatedContext(context.Background(), MatrixSpec{
		Traces:  []string{"ads"},
		Schemes: []string{"IPU"},
		Scale:   0.002,
		Flash:   &fc,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := reps[[2]string{"ads", "IPU"}]
	if !ok {
		t.Fatal("missing replication entry")
	}
	if rep.Latency.N != 3 || rep.BER.N != 3 {
		t.Errorf("replica counts: %+v", rep)
	}
	if rep.Latency.Mean <= 0 || rep.BER.Mean <= 0 {
		t.Errorf("means not positive: %+v", rep)
	}
	// Different seeds give different traces: some variance is expected,
	// but the BER metric should be very stable.
	if rep.BER.RelStd() > 10 {
		t.Errorf("BER varies %.1f%% across seeds; suspicious", rep.BER.RelStd())
	}
}

func TestReplicationTable(t *testing.T) {
	fc := smallFlash()
	tab, err := ReplicationTableContext(context.Background(), MatrixSpec{
		Traces:  []string{"ads"},
		Schemes: []string{"Baseline", "IPU"},
		Scale:   0.002,
		Flash:   &fc,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Replication over 2 seeds") {
		t.Error("title missing")
	}
}
