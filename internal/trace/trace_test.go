package trace

import (
	"strings"
	"testing"

	"branchscope/internal/cpu"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
)

func newCtx() *cpu.Context {
	return sched.NewSystem(uarch.Skylake(), 1).NewProcess("traced")
}

func TestRecorderCountsEvents(t *testing.T) {
	ctx := newCtx()
	r := Attach(ctx, 64)
	ctx.Branch(0x100, true) // fresh WN predicts not-taken: miss
	ctx.Nop(0x200)
	ctx.Work(3)
	s := r.Summary()
	if s.Instructions != 5 {
		t.Errorf("Instructions = %d, want 5", s.Instructions)
	}
	if s.Branches != 1 {
		t.Errorf("Branches = %d, want 1", s.Branches)
	}
	if s.Mispredicted != 1 {
		t.Errorf("Mispredicted = %d, want 1", s.Mispredicted)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestRecorderEventsChronological(t *testing.T) {
	ctx := newCtx()
	r := Attach(ctx, 8)
	for i := 0; i < 5; i++ {
		ctx.Nop(uint64(0x100 + i))
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("events = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Index != evs[i-1].Index+1 {
			t.Fatal("events out of order")
		}
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatal("cycles regressed")
		}
	}
}

func TestRecorderRingWraps(t *testing.T) {
	ctx := newCtx()
	r := Attach(ctx, 4)
	for i := 0; i < 10; i++ {
		ctx.Nop(uint64(0x100 + i))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if evs[0].Index != 6 || evs[3].Index != 9 {
		t.Errorf("retained window [%d..%d], want [6..9]", evs[0].Index, evs[3].Index)
	}
	// Lifetime counts are not bounded by the ring.
	if r.Summary().Instructions != 10 {
		t.Errorf("lifetime instructions = %d", r.Summary().Instructions)
	}
}

func TestRecorderComposesWithSchedulerHook(t *testing.T) {
	sys := sched.NewSystem(uarch.Skylake(), 2)
	var rec *Recorder
	th := sys.Spawn("victim", func(ctx *cpu.Context) {
		for i := 0; i < 6; i++ {
			ctx.Branch(0x300, true)
		}
	})
	// Attach after Spawn so the scheduler's hook is composed under ours.
	rec = Attach(th.Context(), 32)
	th.StepBranches(2)
	if got := rec.Summary().Branches; got != 2 {
		t.Errorf("after StepBranches(2): recorded %d branches", got)
	}
	for th.Step(1 << 10) {
	}
	if got := rec.Summary().Branches; got != 6 {
		t.Errorf("after Run: recorded %d branches", got)
	}
}

func TestDetachRestoresPreviousHook(t *testing.T) {
	ctx := newCtx()
	var base int
	ctx.SetHook(func(isBranch bool) { base++ })
	r := Attach(ctx, 8)
	ctx.Nop(0x100)
	ctx.Nop(0x104)
	r.Detach()
	ctx.Nop(0x108)
	ctx.Nop(0x10c)

	// The previous hook saw every retirement; the recorder only the two
	// before Detach, and its ring stays readable afterwards.
	if base != 4 {
		t.Errorf("previous hook ran %d times, want 4", base)
	}
	if got := r.Summary().Instructions; got != 2 {
		t.Errorf("recorder captured %d instructions after detach, want 2", got)
	}
	if len(r.Events()) != 2 {
		t.Errorf("ring has %d events, want 2", len(r.Events()))
	}
	// Idempotent: a second Detach must not disturb the restored chain.
	r.Detach()
	ctx.Nop(0x110)
	if base != 5 {
		t.Errorf("previous hook ran %d times after double detach, want 5", base)
	}
}

func TestDetachLIFOComposition(t *testing.T) {
	ctx := newCtx()
	outer := Attach(ctx, 8)
	inner := Attach(ctx, 8) // wraps outer's closure
	ctx.Nop(0x100)

	// LIFO: detach inner first; outer keeps recording.
	inner.Detach()
	ctx.Nop(0x104)
	if got := inner.Summary().Instructions; got != 1 {
		t.Errorf("inner recorded %d, want 1", got)
	}
	if got := outer.Summary().Instructions; got != 2 {
		t.Errorf("outer recorded %d after inner detached, want 2", got)
	}

	outer.Detach()
	ctx.Nop(0x108)
	if got := outer.Summary().Instructions; got != 2 {
		t.Errorf("outer recorded %d after its own detach, want 2", got)
	}
	if ctx.Hook() != nil {
		t.Error("hook chain not fully restored")
	}
}

func TestDetachOutOfOrderStopsRecording(t *testing.T) {
	// Non-LIFO detach is documented as splicing away later recorders:
	// outer.Detach() reinstalls outer.prev, so inner stops seeing events.
	// When inner then detaches, it reinstalls outer's stale closure; the
	// detached guard keeps that closure from recording.
	ctx := newCtx()
	outer := Attach(ctx, 8)
	inner := Attach(ctx, 8)
	ctx.Nop(0x100)
	outer.Detach() // out of order: splices inner off the context
	ctx.Nop(0x104)
	if got := outer.Summary().Instructions; got != 1 {
		t.Errorf("outer recorded %d after detach, want 1", got)
	}
	if got := inner.Summary().Instructions; got != 1 {
		t.Errorf("inner recorded %d while spliced off, want 1", got)
	}
	inner.Detach() // reinstalls outer's stale (detached) closure
	ctx.Nop(0x108)
	if got := outer.Summary().Instructions; got != 1 {
		t.Errorf("outer's stale closure recorded after detach: %d events", got)
	}
}

func TestDirectionsRendering(t *testing.T) {
	ctx := newCtx()
	r := Attach(ctx, 32)
	// Train taken, then surprise twice: pattern ends with misses.
	for i := 0; i < 4; i++ {
		ctx.Branch(0x500, true)
	}
	ctx.Branch(0x500, false)
	ctx.Nop(0x600)
	s := r.Directions()
	if !strings.HasSuffix(s, "M") {
		t.Errorf("Directions = %q, want trailing M", s)
	}
	if strings.ContainsAny(s, "0123456789") {
		t.Errorf("unexpected characters in %q", s)
	}
	// First branch was a miss (fresh WN, taken), middle ones hits.
	if s != "M..."+"M" && s != "M...M" {
		t.Errorf("Directions = %q, want M...M", s)
	}
}

func TestAttachPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Attach(newCtx(), 0)
}

func TestMissRateEmpty(t *testing.T) {
	if (Summary{}).MissRate() != 0 {
		t.Error("empty MissRate != 0")
	}
}
