package trace

// Scale returns a new trace with all timestamps multiplied by factor,
// compressing (factor < 1) or stretching (factor > 1) the arrival process
// to change the load intensity without altering the access pattern.
func (t *Trace) Scale(factor float64) *Trace {
	n := t.Len()
	out := &Trace{
		Name:   t.Name,
		time:   make([]int64, n),
		op:     make([]OpType, n),
		off:    make([]int64, n),
		size:   make([]int32, n),
		maxEnd: t.maxEnd,
	}
	copy(out.op, t.op)
	copy(out.off, t.off)
	copy(out.size, t.size)
	for i, ts := range t.time {
		out.time[i] = int64(float64(ts) * factor)
	}
	return out
}
