// Package trace records architectural event streams from simulated
// hardware contexts: per-branch records with address, direction and
// cycle timestamps. Traces drive offline analysis (what did the victim's
// branch stream look like?), debugging of attack schedules, and the
// anomaly detector of internal/detect.
//
// A Recorder attaches to a cpu.Context through its retire hook, composing
// with any hook already installed (the scheduler's); recording therefore
// works on free-running and on stepped threads alike.
package trace

import (
	"fmt"
	"strings"

	"branchscope/internal/cpu"
)

// Event is one retired instruction observation.
type Event struct {
	// Index is the retired-instruction ordinal within the context.
	Index uint64
	// Branch reports whether the instruction was a conditional branch.
	Branch bool
	// Mispredicted reports whether that branch missed (valid only when
	// Branch).
	Mispredicted bool
	// Cycle is the core clock after retirement.
	Cycle uint64
}

// Recorder captures events from one context into a bounded ring.
type Recorder struct {
	ctx      *cpu.Context
	ring     []Event
	next     int
	full     bool
	prev     cpu.Hook
	detached bool

	instr      uint64
	branches   uint64
	misses     uint64
	lastMisses uint64
}

// Attach installs a recorder on ctx keeping the most recent capacity
// events. It composes with any previously installed hook, recording
// before the previous hook runs — the scheduler's hook may park the
// thread, and the retired instruction must be observed before that
// happens. It panics on a non-positive capacity.
func Attach(ctx *cpu.Context, capacity int) *Recorder {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	r := &Recorder{ctx: ctx, ring: make([]Event, capacity)}
	r.lastMisses = ctx.ReadPMC(cpu.BranchMisses)
	r.prev = ctx.Hook()
	ctx.SetHook(func(isBranch bool) {
		if r.detached {
			if r.prev != nil {
				r.prev(isBranch)
			}
			return
		}
		r.record(isBranch)
		if r.prev != nil {
			r.prev(isBranch)
		}
	})
	return r
}

func (r *Recorder) record(isBranch bool) {
	ev := Event{
		Index:  r.instr,
		Branch: isBranch,
		Cycle:  r.ctx.Core().Clock(),
	}
	r.instr++
	if isBranch {
		r.branches++
		if m := r.ctx.ReadPMC(cpu.BranchMisses); m != r.lastMisses {
			ev.Mispredicted = true
			r.misses += m - r.lastMisses
			r.lastMisses = m
		}
	}
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
}

// Events returns the recorded events in chronological order (at most the
// ring capacity, the most recent ones).
func (r *Recorder) Events() []Event {
	if !r.full {
		return append([]Event(nil), r.ring[:r.next]...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Summary aggregates a recorder's lifetime counts (not limited by ring
// capacity).
type Summary struct {
	Instructions uint64
	Branches     uint64
	Mispredicted uint64
}

// MissRate returns the misprediction rate over all recorded branches.
func (s Summary) MissRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicted) / float64(s.Branches)
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("%d instructions, %d branches, %d mispredicted (%.1f%%)",
		s.Instructions, s.Branches, s.Mispredicted, 100*s.MissRate())
}

// Summary returns lifetime counts.
func (r *Recorder) Summary() Summary {
	return Summary{Instructions: r.instr, Branches: r.branches, Mispredicted: r.misses}
}

// Directions renders the branch outcomes of the retained events as a
// compact string: '.' for a correctly predicted branch, 'M' for a
// mispredicted one. Non-branch events are skipped. Useful in test
// failures and the CLI's trace mode.
func (r *Recorder) Directions() string {
	var b strings.Builder
	for _, ev := range r.Events() {
		if !ev.Branch {
			continue
		}
		if ev.Mispredicted {
			b.WriteByte('M')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}
