package bpu

import (
	"fmt"
	"reflect"
	"testing"

	"branchscope/internal/fsm"
	"branchscope/internal/rng"
)

// referenceSnapshot captures the reference unit's architectural state in
// the same shape as Unit.Snapshot so the two can be compared directly.
func (u *ReferenceUnit) snapshot() *Snapshot {
	return &Snapshot{
		pht:      append([]uint8(nil), u.entries...),
		selector: append([]uint8(nil), u.selector...),
		ghr:      u.ghr,
		tags:     append([]tagEntry(nil), u.tags...),
		btb:      append([]btbEntry(nil), u.btb...),
	}
}

// diffConfigs enumerates the matrix the differential satellite requires:
// every FSM spec the models use (the textbook counter of Sandy Bridge
// and Haswell, the asymmetric Skylake counter, plus a wider generic
// shape) under every mode and every §10.2 mitigation. Table sizes are
// kept small so collisions and partition effects are exercised heavily;
// one full-size Skylake-shaped config guards the realistic geometry, and
// one PHT size off the heatmap's power-of-two grid pins its fallback.
func diffConfigs() []Config {
	specs := []*fsm.Spec{
		fsm.Textbook2Bit(), // Sandy Bridge / Haswell
		fsm.SkylakeAsym(),  // Skylake
		fsm.Saturating("wide-3-3", 3, 3, 2),
	}
	var cfgs []Config
	for _, spec := range specs {
		for _, mode := range []Mode{Hybrid, BimodalOnly, GshareOnly, StaticOnly} {
			for _, mit := range []Mitigation{
				MitigationNone,
				MitigationRandomizedIndex,
				MitigationPartitioned,
				MitigationNoPredictSensitive,
				MitigationStochasticFSM,
			} {
				cfg := Config{
					FSM:          spec,
					PHTSize:      64,
					SelectorSize: 16,
					GHRBits:      8,
					TagEntries:   24, // deliberately not a power of two
					BTBEntries:   32,
					Mode:         mode,
					SelectorInit: 3,
					Mitigation:   mit,
				}
				switch mit {
				case MitigationRandomizedIndex:
					cfg.IndexKey = 0xfeed_f00d_dead_beef
				case MitigationPartitioned:
					cfg.Domains = 3 // odd partition span: exercises the modulo fallback
				case MitigationStochasticFSM:
					cfg.StochasticP = 0.5
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	// A PHT that is not the heatmap's set count times a power of two
	// (192 = 64 sets × 3 entries): the heatmap keeps the division.
	cfgs = append(cfgs, Config{
		FSM:          fsm.Textbook2Bit(),
		PHTSize:      192,
		SelectorSize: 16,
		GHRBits:      8,
		TagEntries:   24,
		BTBEntries:   32,
		Mode:         Hybrid,
		SelectorInit: 3,
	})
	// Realistic Skylake geometry (matches uarch.Skylake).
	cfgs = append(cfgs, Config{
		FSM:          fsm.SkylakeAsym(),
		PHTSize:      16384,
		SelectorSize: 4096,
		GHRBits:      16,
		TagEntries:   2048,
		BTBEntries:   4096,
		Mode:         Hybrid,
		SelectorInit: 3,
	})
	return cfgs
}

// TestDifferentialReferenceVsFast steps the retained pre-refactor
// predictor (Predict then Commit) and the fused Exec step over identical
// randomized branch streams and asserts prediction-for-prediction and
// state-for-state equivalence: at every step the predicted direction,
// BTB hit and allocation, plus the read-only Predict query; at the end
// the architectural Snapshot and the lifetime diagnostics, with the
// heatmap recounted from the reference's lookups by the set formula
// idx*sets/PHTSize. Recurring sites execute through cached Sites, as
// ExecPlan does, and a mid-stream MarkSensitive invalidates them.
func TestDifferentialReferenceVsFast(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%s/%s/%s/pht%d",
			cfg.FSM.Name, cfg.Mode, cfg.Mitigation, cfg.PHTSize)
		t.Run(name, func(t *testing.T) {
			fast := New(cfg)
			ref := NewReference(cfg)
			if cfg.Mitigation == MitigationNoPredictSensitive {
				fast.MarkSensitive(0x2000, 0x2800)
				ref.MarkSensitive(0x2000, 0x2800)
			}
			r := rng.New(0xd1ff + uint64(len(cfg.FSM.Name)))
			// A handful of recurring sites (so tags/selector train) mixed
			// with fresh addresses (so allocation churn is exercised),
			// spread across the sensitive range and three domains.
			hot := make([]uint64, 12)
			for i := range hot {
				hot[i] = 0x1000 + uint64(i)*0x151
			}
			hot[3], hot[7] = 0x2100, 0x2404 // inside the sensitive range
			sites := make(map[[2]uint64]*Site)
			var commits, mispredicts uint64
			heat := make([]uint64, heatSets(cfg.PHTSize))
			for step := 0; step < 6000; step++ {
				if step == 3000 {
					// A layout change mid-stream: every cached Site is
					// stale; hot[1] and hot[2] turn sensitive.
					fast.MarkSensitive(0x1100, 0x1300)
					ref.MarkSensitive(0x1100, 0x1300)
				}
				domain := r.Uint64n(3)
				addr := hot[r.Uint64n(uint64(len(hot)))]
				fresh := r.Chance(0.25)
				if fresh {
					addr = 0x4000 + r.Uint64n(1<<20)
				}
				taken := r.Chance(0.6)
				target := addr + 16 + r.Uint64n(256)

				var s *Site
				if fresh {
					site := fast.Resolve(domain, addr)
					s = &site
				} else if s = sites[[2]uint64{domain, addr}]; s == nil {
					site := fast.Resolve(domain, addr)
					s = &site
					sites[[2]uint64{domain, addr}] = s
				}

				lr := ref.Predict(domain, addr)
				if lf := fast.Predict(domain, addr); lf != lr.Lookup {
					t.Fatalf("step %d: Predict diverged for addr %#x domain %d:\nfast %+v\nref  %+v",
						step, addr, domain, lf, lr.Lookup)
				}
				predicted, btbHit, allocated := fast.Exec(s, taken, target)
				ar := ref.Commit(lr, taken, target)
				if predicted != lr.Taken || btbHit != lr.BTBHit || allocated != ar {
					t.Fatalf("step %d: Exec diverged for addr %#x domain %d: predicted/btbHit/allocated fast %v/%v/%v ref %v/%v/%v",
						step, addr, domain, predicted, btbHit, allocated, lr.Taken, lr.BTBHit, ar)
				}
				if !lr.Static {
					commits++
					if lr.Taken != taken {
						mispredicts++
						idx := lr.bimodalIdx
						if lr.UsedGshare {
							idx = lr.gshareIdx
						}
						heat[int(idx)*len(heat)/cfg.PHTSize]++
					}
				}
			}
			sf, sr := fast.Snapshot(), ref.snapshot()
			if !reflect.DeepEqual(sf, sr) {
				t.Fatalf("architectural state diverged after stream:\nghr fast %#x ref %#x\npht equal: %v\nselector equal: %v",
					sf.ghr, sr.ghr,
					reflect.DeepEqual(sf.pht, sr.pht),
					reflect.DeepEqual(sf.selector, sr.selector))
			}
			in := fast.Introspect()
			if in.Commits != commits || in.Mispredicts != mispredicts {
				t.Errorf("diagnostics: commits/mispredicts %d/%d, reference recount %d/%d",
					in.Commits, in.Mispredicts, commits, mispredicts)
			}
			if !reflect.DeepEqual(in.Heatmap, heat) {
				t.Errorf("heatmap diverged from the reference recount:\nfast %v\nref  %v", in.Heatmap, heat)
			}
		})
	}
}

// TestDifferentialSiteReuse pins the resolved-site path specifically: a
// Site cached across thousands of executions (the ExecPlan situation)
// must behave exactly like the reference predictor, including across a
// MarkSensitive layout change that invalidates it mid-stream.
func TestDifferentialSiteReuse(t *testing.T) {
	cfg := Config{
		FSM:          fsm.SkylakeAsym(),
		PHTSize:      256,
		SelectorSize: 64,
		GHRBits:      10,
		TagEntries:   64,
		BTBEntries:   64,
		Mode:         Hybrid,
		SelectorInit: 3,
		Mitigation:   MitigationNoPredictSensitive,
	}
	fast := New(cfg)
	ref := NewReference(cfg)
	addr := uint64(0x9000)
	site := fast.Resolve(1, addr)
	r := rng.New(42)
	for step := 0; step < 4000; step++ {
		if step == 2000 {
			// Invalidate the cached layout mid-stream.
			fast.MarkSensitive(addr, addr+4)
			ref.MarkSensitive(addr, addr+4)
		}
		taken := r.Chance(0.5)
		lr := ref.Predict(1, addr)
		predicted, btbHit, allocated := fast.Exec(&site, taken, addr+32)
		ar := ref.Commit(lr, taken, addr+32)
		if predicted != lr.Taken || btbHit != lr.BTBHit || allocated != ar {
			t.Fatalf("step %d: cached site diverged from the reference: predicted/btbHit/allocated %v/%v/%v, want %v/%v/%v",
				step, predicted, btbHit, allocated, lr.Taken, lr.BTBHit, ar)
		}
	}
	if !site.static {
		t.Error("cached site did not revalidate to the sensitive layout")
	}
	if !reflect.DeepEqual(fast.Snapshot(), ref.snapshot()) {
		t.Fatal("architectural state diverged between the cached-site unit and the reference")
	}
}

// TestHeatSetMatchesDivision checks the heatmap's shift mapping against
// the set formula idx*sets/PHTSize for every index of power-of-two and
// other table sizes.
func TestHeatSetMatchesDivision(t *testing.T) {
	for _, size := range []int{1, 48, 63, 64, 96, 100, 192, 1024, 4096, 16384} {
		cfg := Config{FSM: fsm.Textbook2Bit(), PHTSize: size, SelectorSize: 4, GHRBits: 4, TagEntries: 4, BTBEntries: 4}
		u := New(cfg)
		for idx := 0; idx < size; idx++ {
			if got, want := u.heatSet(int32(idx)), idx*len(u.heat)/size; got != want {
				t.Fatalf("PHTSize %d: heatSet(%d) = %d, want %d", size, idx, got, want)
			}
		}
	}
}
