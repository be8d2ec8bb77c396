package main

import "slices"

// interval is a timed stretch [start, end) in nanoseconds on one clock.
type interval struct{ start, end int64 }

// span is one named interval of the traced run plus the spans it
// caused.
type span struct {
	name string
	interval
	children []span
}

func (iv interval) dur() int64 { return iv.end - iv.start }

// selfTime is a layer's own time in a span: the span's duration minus
// the part of it that its children cover. It reorders children.
func selfTime(s interval, children []interval) int64 { return s.dur() - covered(s, children) }

// covered returns how much of within the union of ivs covers: each
// interval is clipped to within and overlaps count once. It reorders
// ivs.
func covered(within interval, ivs []interval) int64 {
	slices.SortFunc(ivs, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	var total int64
	cur := within.start // everything before cur is already counted
	for _, iv := range ivs {
		lo, hi := max(iv.start, cur), min(iv.end, within.end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}
