package fsm

import (
	"testing"
	"testing/quick"
)

func TestTextbookShape(t *testing.T) {
	s := Textbook2Bit()
	if s.States != 4 {
		t.Fatalf("States = %d, want 4", s.States)
	}
	if got := s.Label(0); got != SN {
		t.Errorf("Label(0) = %v, want SN", got)
	}
	if got := s.Label(1); got != WN {
		t.Errorf("Label(1) = %v, want WN", got)
	}
	if got := s.Label(2); got != WT {
		t.Errorf("Label(2) = %v, want WT", got)
	}
	if got := s.Label(3); got != ST {
		t.Errorf("Label(3) = %v, want ST", got)
	}
	for st := uint8(0); st < 4; st++ {
		want := st >= 2
		if got := s.Predict(st); got != want {
			t.Errorf("Predict(%d) = %v, want %v", st, got, want)
		}
	}
}

func TestTextbookTransitions(t *testing.T) {
	s := Textbook2Bit()
	cases := []struct {
		state uint8
		taken bool
		want  uint8
	}{
		{0, false, 0}, {0, true, 1},
		{1, false, 0}, {1, true, 2},
		{2, false, 1}, {2, true, 3},
		{3, false, 2}, {3, true, 3},
	}
	for _, c := range cases {
		if got := s.Next(c.state, c.taken); got != c.want {
			t.Errorf("Next(%d, %v) = %d, want %d", c.state, c.taken, got, c.want)
		}
	}
}

func TestStrongStates(t *testing.T) {
	for _, s := range []*Spec{Textbook2Bit(), SkylakeAsym()} {
		if got := s.Strong(true); s.Label(got) != ST {
			t.Errorf("%s: Strong(true) label = %v, want ST", s.Name, s.Label(got))
		}
		if got := s.Strong(false); s.Label(got) != SN {
			t.Errorf("%s: Strong(false) label = %v, want SN", s.Name, s.Label(got))
		}
	}
}

func TestPrimeSaturatesFromInit(t *testing.T) {
	// Three same-direction executions from the fresh-entry state must
	// reach the strong state of that direction — the paper's prime
	// stage uses exactly three executions (§6.1).
	for _, s := range []*Spec{Textbook2Bit(), SkylakeAsym()} {
		if got := s.Apply(s.Init, true, true, true); got != s.Strong(true) {
			t.Errorf("%s: TTT from init = %d, want strong taken %d", s.Name, got, s.Strong(true))
		}
		if got := s.Apply(s.Init, false, false, false); got != s.Strong(false) {
			t.Errorf("%s: NNN from init = %d, want strong not-taken %d", s.Name, got, s.Strong(false))
		}
	}
}

// probe runs the paper's two-probe protocol from a state: execute the
// branch twice with the given outcome and record hit (correct prediction)
// or miss for each execution.
func probe(s *Spec, state uint8, taken bool) (first, second bool) {
	p1 := s.Predict(state) == taken
	state = s.Next(state, taken)
	p2 := s.Predict(state) == taken
	return p1, p2
}

// obs formats a probe observation the way Table 1 does: H for hit, M for
// misprediction.
func obs(first, second bool) string {
	b := func(hit bool) byte {
		if hit {
			return 'H'
		}
		return 'M'
	}
	return string([]byte{b(first), b(second)})
}

// TestTable1Textbook checks every row of Table 1 against the textbook FSM
// (the Haswell / Sandy Bridge behaviour, including footnote 1's MH).
func TestTable1Textbook(t *testing.T) {
	s := Textbook2Bit()
	rows := []struct {
		prime  bool // direction primed three times
		target bool
		probe  bool
		want   string
	}{
		{true, true, true, "HH"},    // TTT, T, TT
		{true, true, false, "MM"},   // TTT, T, NN
		{true, false, true, "HH"},   // TTT, N, TT
		{true, false, false, "MH"},  // TTT, N, NN (footnote: MH on HSW/SB)
		{false, true, true, "MH"},   // NNN, T, TT
		{false, true, false, "HH"},  // NNN, T, NN
		{false, false, true, "MM"},  // NNN, N, TT
		{false, false, false, "HH"}, // NNN, N, NN
	}
	for _, r := range rows {
		state := s.Apply(s.Init, r.prime, r.prime, r.prime)
		state = s.Next(state, r.target)
		f, sec := probe(s, state, r.probe)
		if got := obs(f, sec); got != r.want {
			t.Errorf("prime=%v target=%v probe=%v: observed %s, want %s",
				r.prime, r.target, r.probe, got, r.want)
		}
	}
}

// TestTable1Skylake checks that the asymmetric counter reproduces the
// Skylake peculiarity: row 4 (TTT, N, NN) observes MM instead of MH, and
// all other rows are unchanged.
func TestTable1Skylake(t *testing.T) {
	s := SkylakeAsym()
	rows := []struct {
		prime  bool
		target bool
		probe  bool
		want   string
	}{
		{true, true, true, "HH"},
		{true, true, false, "MM"},
		{true, false, true, "HH"},
		{true, false, false, "MM"}, // the Skylake footnote
		{false, true, true, "MH"},
		{false, true, false, "HH"},
		{false, false, true, "MM"},
		{false, false, false, "HH"},
	}
	for _, r := range rows {
		state := s.Apply(s.Init, r.prime, r.prime, r.prime)
		state = s.Next(state, r.target)
		f, sec := probe(s, state, r.probe)
		if got := obs(f, sec); got != r.want {
			t.Errorf("prime=%v target=%v probe=%v: observed %s, want %s",
				r.prime, r.target, r.probe, got, r.want)
		}
	}
}

// TestSkylakeSTWTIndistinguishable verifies the paper's claim that ST and
// WT cannot be told apart on Skylake by the two-probe dictionary: both
// produce identical (probeTT, probeNN) observation pairs.
func TestSkylakeSTWTIndistinguishable(t *testing.T) {
	s := SkylakeAsym()
	st := s.Strong(true)
	wt := s.Next(st, false) // one notch down from ST
	if s.Label(wt) != WT {
		t.Fatalf("state below ST has label %v, want WT", s.Label(wt))
	}
	for _, dir := range []bool{true, false} {
		f1, s1 := probe(s, st, dir)
		f2, s2 := probe(s, wt, dir)
		if f1 != f2 || s1 != s2 {
			t.Errorf("probe dir=%v distinguishes ST (%s) from WT (%s)",
				dir, obs(f1, s1), obs(f2, s2))
		}
	}
}

// TestTextbookSTWTDistinguishable verifies the converse on the textbook
// FSM: the NN probe separates ST (MM) from WT (MH).
func TestTextbookSTWTDistinguishable(t *testing.T) {
	s := Textbook2Bit()
	f1, s1 := probe(s, s.Strong(true), false)
	f2, s2 := probe(s, s.Next(s.Strong(true), false), false)
	if obs(f1, s1) == obs(f2, s2) {
		t.Errorf("textbook FSM cannot distinguish ST from WT: both %s", obs(f1, s1))
	}
}

func TestSaturationIsAbsorbing(t *testing.T) {
	for _, s := range []*Spec{Textbook2Bit(), SkylakeAsym()} {
		if got := s.Next(s.Strong(true), true); got != s.Strong(true) {
			t.Errorf("%s: taken from strong-taken moved to %d", s.Name, got)
		}
		if got := s.Next(s.Strong(false), false); got != s.Strong(false) {
			t.Errorf("%s: not-taken from strong-not-taken moved to %d", s.Name, got)
		}
	}
}

// Property: from any state, enough consecutive outcomes in one direction
// saturate the counter, and the prediction then matches that direction.
func TestQuickSaturation(t *testing.T) {
	specs := []*Spec{Textbook2Bit(), SkylakeAsym(), Saturating("wide", 4, 4, 3)}
	f := func(start uint8, dir bool) bool {
		for _, s := range specs {
			st := start % s.States
			for i := uint8(0); i < s.States; i++ {
				st = s.Next(st, dir)
			}
			if st != s.Strong(dir) || s.Predict(st) != dir {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: transitions move at most one state per outcome and never leave
// the valid range.
func TestQuickTransitionsBounded(t *testing.T) {
	specs := []*Spec{Textbook2Bit(), SkylakeAsym(), Saturating("wide", 3, 5, 2)}
	f := func(start uint8, dir bool) bool {
		for _, s := range specs {
			st := start % s.States
			nx := s.Next(st, dir)
			if nx >= s.States {
				return false
			}
			d := int(nx) - int(st)
			if d < -1 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: monotonicity — a taken outcome never decreases the state and a
// not-taken outcome never increases it.
func TestQuickMonotone(t *testing.T) {
	s := SkylakeAsym()
	f := func(start uint8) bool {
		st := start % s.States
		return s.Next(st, true) >= st && s.Next(st, false) <= st
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSaturatingPanics(t *testing.T) {
	cases := []struct {
		name         string
		nNot, nTaken int
		init         int
	}{
		{"no-not-states", 0, 2, 0},
		{"no-taken-states", 2, 0, 0},
		{"init-negative", 2, 2, -1},
		{"init-too-big", 2, 2, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Saturating(%d,%d,init=%d) did not panic", c.nNot, c.nTaken, c.init)
				}
			}()
			Saturating("bad", c.nNot, c.nTaken, c.init)
		})
	}
}

func TestLabelString(t *testing.T) {
	want := map[Label]string{SN: "SN", WN: "WN", WT: "WT", ST: "ST"}
	for l, w := range want {
		if got := l.String(); got != w {
			t.Errorf("%v.String() = %q, want %q", uint8(l), got, w)
		}
	}
	if got := Label(9).String(); got != "Label(9)" {
		t.Errorf("Label(9).String() = %q", got)
	}
}

// TestLabelsOrder: the labels run from not-taken to taken, the order
// the lowest and highest states of every spec take.
func TestLabelsOrder(t *testing.T) {
	if !(SN < WN && WN < WT && WT < ST) {
		t.Errorf("labels out of order: SN=%d WN=%d WT=%d ST=%d", SN, WN, WT, ST)
	}
	for _, s := range []*Spec{Textbook2Bit(), SkylakeAsym()} {
		if lo, hi := s.Label(0), s.Label(s.States-1); lo != SN || hi != ST {
			t.Errorf("%s: labels %v..%v, want SN..ST", s.Name, lo, hi)
		}
	}
}

func TestSpecString(t *testing.T) {
	if got := Textbook2Bit().String(); got == "" {
		t.Error("empty String()")
	}
}
