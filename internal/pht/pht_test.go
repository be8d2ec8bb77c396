package pht

import (
	"testing"
	"testing/quick"

	"branchscope/internal/fsm"
	"branchscope/internal/rng"
)

func TestNewInitializesToFreshState(t *testing.T) {
	spec := fsm.Textbook2Bit()
	tab := New(spec, 16)
	for i := 0; i < tab.Size(); i++ {
		if tab.State(i) != spec.Init {
			t.Fatalf("entry %d = %d, want init %d", i, tab.State(i), spec.Init)
		}
	}
}

func TestUpdateAndPredict(t *testing.T) {
	tab := New(fsm.Textbook2Bit(), 8)
	// Fresh entry (WN) predicts not-taken.
	if tab.Predict(3) {
		t.Error("fresh entry predicts taken")
	}
	tab.Update(3, true)
	if !tab.Predict(3) {
		t.Error("after one taken, WN->WT should predict taken")
	}
	// Other entries unaffected.
	if tab.Predict(2) || tab.Predict(4) {
		t.Error("neighbour entries were modified")
	}
}

func TestResetRestoresInit(t *testing.T) {
	tab := New(fsm.Textbook2Bit(), 4)
	tab.Update(0, true)
	tab.Update(0, true)
	tab.Reset()
	if tab.State(0) != tab.spec.Init {
		t.Errorf("state after Reset = %d", tab.State(0))
	}
}

func TestSnapshotRestore(t *testing.T) {
	tab := New(fsm.SkylakeAsym(), 8)
	tab.Update(1, true)
	tab.Update(1, true)
	snap := tab.Snapshot()
	tab.Update(1, false)
	tab.Update(5, true)
	tab.Restore(snap)
	if tab.State(1) != snap[1] || tab.State(5) != snap[5] {
		t.Error("Restore did not reinstate snapshot")
	}
	// Snapshot must be a copy, not an alias.
	snap[0] = 99
	if tab.State(0) == 99 {
		t.Error("Snapshot aliases table storage")
	}
}

func TestRestorePanicsOnSizeMismatch(t *testing.T) {
	tab := New(fsm.Textbook2Bit(), 8)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	tab.Restore(make([]uint8, 4))
}

func TestSetStatePanicsOnInvalid(t *testing.T) {
	tab := New(fsm.Textbook2Bit(), 8)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	tab.SetState(0, 200)
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(fsm.Textbook2Bit(), 0)
}

func TestLabel(t *testing.T) {
	tab := New(fsm.Textbook2Bit(), 2)
	for i := 0; i < 3; i++ {
		tab.Update(0, true)
	}
	if tab.Label(0) != fsm.ST {
		t.Errorf("Label = %v, want ST", tab.Label(0))
	}
}

func TestStochasticUpdates(t *testing.T) {
	tab := New(fsm.Textbook2Bit(), 1)
	tab.SetStochastic(0, rng.New(1))
	st := tab.State(0)
	for i := 0; i < 100; i++ {
		tab.Update(0, true)
	}
	if tab.State(0) != st {
		t.Error("p=0 stochastic table still updated")
	}
	tab.SetStochastic(0.5, rng.New(2))
	moved := false
	for i := 0; i < 100 && !moved; i++ {
		tab.Update(0, true)
		moved = tab.State(0) != st
	}
	if !moved {
		t.Error("p=0.5 stochastic table never updated in 100 tries")
	}
	tab.SetStochastic(1, nil)
	tab.SetState(0, 0)
	tab.Update(0, true)
	if tab.State(0) != 1 {
		t.Error("p=1 restore did not make updates deterministic")
	}
}

func TestBimodalIndexByteGranularity(t *testing.T) {
	// §6.3: adjacent addresses map to different entries; addresses
	// exactly size apart collide.
	size := 16384
	if BimodalIndex(0x300000, size) == BimodalIndex(0x300001, size) {
		t.Error("adjacent addresses collide")
	}
	if BimodalIndex(0x300000, size) != BimodalIndex(0x300000+uint64(size), size) {
		t.Error("addresses size apart do not collide")
	}
}

func TestGshareIndexDependsOnHistory(t *testing.T) {
	size := 4096
	addr := uint64(0x400321)
	if GshareIndex(addr, 0, size) == GshareIndex(addr, 0x5a5, size) {
		t.Error("gshare index ignores history")
	}
	if GshareIndex(addr, 0, size) != BimodalIndex(addr, size) {
		t.Error("gshare with empty history should reduce to bimodal")
	}
}

func TestKeyedIndexBreaksCollisions(t *testing.T) {
	size := 1024
	a := uint64(0x1000)
	b := a + uint64(size) // collides under bimodal
	if BimodalIndex(a, size) != BimodalIndex(b, size) {
		t.Fatal("test precondition broken")
	}
	// Under a keyed index the pair should (for almost all keys) no
	// longer collide; check a handful of keys and require that most
	// separate the pair.
	separated := 0
	for key := uint64(1); key <= 32; key++ {
		if KeyedIndex(a, key, size) != KeyedIndex(b, key, size) {
			separated++
		}
	}
	if separated < 28 {
		t.Errorf("keyed index separated only %d/32 keys", separated)
	}
	// And different domains (keys) disagree about where a given branch
	// lives, which is what prevents cross-domain priming.
	if KeyedIndex(a, 1, size) == KeyedIndex(a, 2, size) &&
		KeyedIndex(b, 1, size) == KeyedIndex(b, 2, size) {
		t.Error("keyed index is key-independent")
	}
}

// Property: all index functions stay in range for any input.
func TestQuickIndexInRange(t *testing.T) {
	f := func(addr, ghr, key uint64) bool {
		for _, size := range []int{1, 3, 1024, 16384} {
			if i := BimodalIndex(addr, size); i < 0 || i >= size {
				return false
			}
			if i := GshareIndex(addr, ghr, size); i < 0 || i >= size {
				return false
			}
			if i := KeyedIndex(addr, key, size); i < 0 || i >= size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: snapshot/restore is lossless for any update sequence.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(updates []uint16, dirs []bool) bool {
		tab := New(fsm.SkylakeAsym(), 64)
		n := len(updates)
		if len(dirs) < n {
			n = len(dirs)
		}
		for i := 0; i < n; i++ {
			tab.Update(int(updates[i])%64, dirs[i])
		}
		snap := tab.Snapshot()
		for i := 0; i < n; i++ {
			tab.Update(int(updates[i])%64, !dirs[i])
		}
		tab.Restore(snap)
		for i := 0; i < 64; i++ {
			if tab.State(i) != snap[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
