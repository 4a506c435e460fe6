package trace

import "testing"

func windowFixture() *Trace {
	return New("w",
		Record{Time: 0, Op: OpWrite, Offset: 0, Size: 4096},
		Record{Time: 100, Op: OpRead, Offset: 4096, Size: 4096},
		Record{Time: 200, Op: OpWrite, Offset: 8192, Size: 4096},
		Record{Time: 300, Op: OpRead, Offset: 0, Size: 4096},
	)
}

func TestScale(t *testing.T) {
	tr := windowFixture()
	fast := tr.Scale(0.5)
	if fast.At(3).Time != 150 {
		t.Errorf("compressed time = %d", fast.At(3).Time)
	}
	slow := tr.Scale(2)
	if slow.At(3).Time != 600 {
		t.Errorf("stretched time = %d", slow.At(3).Time)
	}
	if tr.At(3).Time != 300 {
		t.Error("Scale mutated the source")
	}
	if slow.MaxOffset() != tr.MaxOffset() {
		t.Error("Scale must preserve MaxOffset")
	}
	if err := fast.Validate(); err != nil {
		t.Errorf("scaled trace invalid: %v", err)
	}
}
