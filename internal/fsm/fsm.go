// Package fsm models the per-entry finite state machines of a directional
// branch predictor's pattern history table (PHT).
//
// BranchScope (§6.1) reverse-engineers these FSMs by priming an entry into
// a strong state, executing one target branch, and probing twice. The
// observable behaviour of Intel's Sandy Bridge and Haswell parts matches
// the textbook 2-bit saturating counter (SN, WN, WT, ST). Skylake shows a
// peculiarity — the strongly-taken and weakly-taken states are
// indistinguishable (Table 1, footnote 1: probing "NN" after "TTT, target
// N" observes MM on Skylake where Haswell/Sandy Bridge observe MH). That
// behaviour is reproduced here by an asymmetric counter with one extra
// weak-taken state, so that a single not-taken outcome from the top of the
// taken side still leaves the counter predicting taken twice more.
//
// A Spec is a pure transition table: deterministic, allocation-free to
// evaluate, and safe for concurrent readers. Mutable per-entry state is a
// single uint8 owned by whoever stores it (see internal/pht).
package fsm

import "fmt"

// Label identifies the architecturally observable class of a counter
// state. Internal specs may have more states than labels (Skylake has two
// weak-taken states, both labelled WT).
type Label uint8

// The four textbook 2-bit counter labels.
const (
	SN Label = iota // strongly not-taken
	WN              // weakly not-taken
	WT              // weakly taken
	ST              // strongly taken
)

// String returns the conventional two-letter name of the label.
func (l Label) String() string {
	switch l {
	case SN:
		return "SN"
	case WN:
		return "WN"
	case WT:
		return "WT"
	case ST:
		return "ST"
	}
	return fmt.Sprintf("Label(%d)", uint8(l))
}

// Spec is an immutable description of a saturating-counter FSM. A state is
// a uint8 in [0, States); higher states lean taken.
//
// The hot accessors (Predict, Next, Label) read a compiled dense
// transition plane — flat arrays indexed directly by state — rather
// than walking the declarative taken/next/labels tables those arrays
// are compiled from. The declarative tables are retained as the
// reference implementation (ReferencePredict and friends) so
// differential tests can step both encodings against each other.
type Spec struct {
	// Name identifies the spec in logs and experiment output.
	Name string
	// States is the number of internal states.
	States uint8
	// Init is the state assigned to a freshly allocated PHT entry (the
	// "no previous history" state of §6.1).
	Init uint8
	// taken is the prediction for each state.
	taken []bool
	// next[state][b] is the successor state after an outcome, with b=1
	// for taken.
	next [][2]uint8
	// labels maps internal state to architectural label.
	labels []Label

	// plane is the compiled transition plane: plane[state<<1|b] is the
	// successor of state after outcome b (1 = taken). Length 2*States.
	plane []uint8
	// meta packs the remaining per-state facts: bit 0 is the predicted
	// direction, bits 1-2 the architectural Label.
	meta []uint8
}

// Predict reports the predicted direction in the given state (true =
// taken). It panics if state is out of range, since that indicates
// corruption of a PHT entry.
func (s *Spec) Predict(state uint8) bool {
	return s.meta[state]&1 != 0
}

// Next returns the state after observing an actual branch outcome.
func (s *Spec) Next(state uint8, taken bool) uint8 {
	b := uint(0)
	if taken {
		b = 1
	}
	return s.plane[uint(state)<<1|b]
}

// Plane exposes the compiled transition plane for callers that step
// counters on a hot path without the method-call and bounds-check
// overhead of Next (see internal/pht). The returned slice is shared
// and must be treated as immutable; plane[state<<1|b] is the successor
// of state after outcome b (1 = taken).
func (s *Spec) Plane() []uint8 {
	return s.plane
}

// ReferencePredict is the original slice-walking prediction lookup,
// retained verbatim as the differential-testing oracle for Predict.
func (s *Spec) ReferencePredict(state uint8) bool {
	return s.taken[state]
}

// ReferenceNext is the original slice-walking transition lookup,
// retained verbatim as the differential-testing oracle for Next.
func (s *Spec) ReferenceNext(state uint8, taken bool) uint8 {
	if taken {
		return s.next[state][1]
	}
	return s.next[state][0]
}

// ReferenceLabel is the original label lookup, retained as the
// differential-testing oracle for Label.
func (s *Spec) ReferenceLabel(state uint8) Label {
	return s.labels[state]
}

// Label classifies an internal state architecturally.
func (s *Spec) Label(state uint8) Label {
	return Label(s.meta[state] >> 1)
}

// Textbook2Bit returns the classic 2-bit saturating counter:
//
//	SN <-> WN <-> WT <-> ST
//
// with taken predictions in WT and ST. This matches the observable
// behaviour of the paper's Sandy Bridge and Haswell machines.
func Textbook2Bit() *Spec {
	return saturating("textbook-2bit", 2, 2, 1)
}

// SkylakeAsym returns an asymmetric saturating counter with two not-taken
// states and three taken-predicting states:
//
//	SN <-> WN <-> WT' <-> WT <-> ST
//
// where WT', WT and ST all predict taken. The extra taken-side state makes
// ST and WT observationally indistinguishable under the paper's two-probe
// protocol, reproducing the Skylake peculiarity of Table 1 (probe NN after
// prime TTT + target N observes MM instead of MH).
func SkylakeAsym() *Spec {
	return saturating("skylake-asym", 2, 3, 1)
}

// Saturating builds a generic asymmetric saturating counter with nNot
// not-taken-predicting states and nTaken taken-predicting states, starting
// init states up from the bottom. It panics on degenerate shapes. The
// standard FSMs above are instances of this constructor; it is exported so
// mitigation studies can explore other organizations.
func Saturating(name string, nNot, nTaken int, init int) *Spec {
	return saturating(name, nNot, nTaken, init)
}

func saturating(name string, nNot, nTaken, init int) *Spec {
	if nNot < 1 || nTaken < 1 {
		panic("fsm: saturating counter needs at least one state per side")
	}
	n := nNot + nTaken
	if n > 255 {
		panic("fsm: too many states")
	}
	if init < 0 || init >= n {
		panic("fsm: init state out of range")
	}
	s := &Spec{
		Name:   name,
		States: uint8(n),
		Init:   uint8(init),
		taken:  make([]bool, n),
		next:   make([][2]uint8, n),
		labels: make([]Label, n),
	}
	for i := 0; i < n; i++ {
		s.taken[i] = i >= nNot
		down, up := i-1, i+1
		if down < 0 {
			down = 0
		}
		if up >= n {
			up = n - 1
		}
		s.next[i] = [2]uint8{uint8(down), uint8(up)}
		s.labels[i] = labelFor(i, nNot, n)
	}
	s.compile()
	return s
}

// compile flattens the declarative taken/next/labels tables into the
// dense transition plane the hot accessors read. Labels must fit in
// two bits of meta; the four textbook labels do.
func (s *Spec) compile() {
	n := int(s.States)
	s.plane = make([]uint8, 2*n)
	s.meta = make([]uint8, n)
	for i := 0; i < n; i++ {
		s.plane[i<<1] = s.next[i][0]
		s.plane[i<<1|1] = s.next[i][1]
		m := uint8(s.labels[i]) << 1
		if s.taken[i] {
			m |= 1
		}
		s.meta[i] = m
	}
}

// labelFor assigns architectural labels: the extreme states are strong,
// everything between is weak on its own side.
func labelFor(i, nNot, n int) Label {
	switch {
	case i == 0:
		return SN
	case i == n-1:
		return ST
	case i < nNot:
		return WN
	default:
		return WT
	}
}

// String implements fmt.Stringer for diagnostics.
func (s *Spec) String() string {
	return fmt.Sprintf("fsm.Spec(%s, %d states, init=%d)", s.Name, s.States, s.Init)
}
