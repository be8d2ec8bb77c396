package bpu

import (
	"branchscope/internal/fsm"
	"branchscope/internal/rng"
)

// ReferenceUnit is the pre-refactor predictor, retained verbatim as the
// differential-testing oracle and the in-PR performance baseline for
// BENCH_hotpath.json. It executes the exact code shape the hot path had
// before the flat-plane/resolved-site overhaul:
//
//   - FSM steps walk the declarative spec tables (fsm.ReferenceNext /
//     ReferencePredict) instead of the compiled transition plane;
//   - every PHT update re-checks the stochastic-mitigation probability
//     with a float compare and an rng nil check;
//   - every Predict recomputes the bimodal, gshare, selector, tag and
//     BTB indexes with 64-bit modulo reductions — nothing is resolved
//     per site or masked.
//
// Its observable behaviour (predictions, state evolution, randomness
// draw order under MitigationStochasticFSM) must stay bit-identical to
// Unit; TestDifferentialReferenceVsFast pins that equivalence for every
// FSM spec, mode, and mitigation.
type ReferenceUnit struct {
	cfg      Config
	spec     *fsm.Spec
	entries  []uint8
	selector []uint8
	ghr      uint64
	ghrMask  uint64
	tags     []tagEntry
	btb      []btbEntry

	updateProb float64
	rnd        *rng.Source
}

// NewReference constructs the reference predictor from the same Config
// that New accepts, including the internally derived stochastic stream
// seed, so a same-config Unit and ReferenceUnit consume identical
// randomness.
func NewReference(cfg Config) *ReferenceUnit {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	u := &ReferenceUnit{
		cfg:        cfg,
		spec:       cfg.FSM,
		entries:    make([]uint8, cfg.PHTSize),
		selector:   make([]uint8, cfg.SelectorSize),
		ghrMask:    (uint64(1) << uint(cfg.GHRBits)) - 1,
		tags:       make([]tagEntry, cfg.TagEntries),
		btb:        make([]btbEntry, cfg.BTBEntries),
		updateProb: 1,
	}
	if cfg.Mitigation == MitigationStochasticFSM {
		u.updateProb = cfg.StochasticP
		u.rnd = rng.New(cfg.mitigationSeed + 0x5eed)
	}
	for i := range u.entries {
		u.entries[i] = u.spec.Init
	}
	for i := range u.selector {
		u.selector[i] = cfg.SelectorInit
	}
	return u
}

// MarkSensitive mirrors Unit.MarkSensitive.
func (u *ReferenceUnit) MarkSensitive(lo, hi uint64) {
	u.cfg.sensitiveRanges = append(u.cfg.sensitiveRanges, addrRange{lo, hi})
}

func (u *ReferenceUnit) sensitive(addr uint64) bool {
	if u.cfg.Mitigation != MitigationNoPredictSensitive {
		return false
	}
	for _, r := range u.cfg.sensitiveRanges {
		if addr >= r.lo && addr < r.hi {
			return true
		}
	}
	return false
}

func (u *ReferenceUnit) domainKey(domain uint64) uint64 {
	return u.cfg.IndexKey ^ (domain * 0x9e3779b97f4a7c15)
}

func (u *ReferenceUnit) phtSpan(domain uint64) (base, size int) {
	if u.cfg.Mitigation != MitigationPartitioned {
		return 0, u.cfg.PHTSize
	}
	n := u.cfg.Domains
	size = u.cfg.PHTSize / n
	if size == 0 {
		size = 1
	}
	base = int(domain%uint64(n)) * size
	return base, size
}

// The reference index functions reduce with `%` unconditionally, as the
// pre-refactor pht package did.
func refFold(addr uint64) uint64 { return addr ^ (addr >> 16) }

func refKeyedIndex(addr, key uint64, size int) int {
	x := addr ^ key
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(size))
}

func (u *ReferenceUnit) bimodalIndex(domain, addr uint64) int {
	base, size := u.phtSpan(domain)
	if u.cfg.Mitigation == MitigationRandomizedIndex {
		return base + refKeyedIndex(addr, u.domainKey(domain), size)
	}
	return base + int(refFold(addr)%uint64(size))
}

func (u *ReferenceUnit) gshareIndex(domain, addr uint64) int {
	base, size := u.phtSpan(domain)
	if u.cfg.Mitigation == MitigationRandomizedIndex {
		return base + refKeyedIndex(addr^(u.ghr<<1), u.domainKey(domain), size)
	}
	return base + int((refFold(addr)^u.ghr)%uint64(size))
}

func (u *ReferenceUnit) tagIndex(domain, addr uint64) int {
	if u.cfg.Mitigation == MitigationPartitioned {
		n := uint64(u.cfg.Domains)
		per := u.cfg.TagEntries / int(n)
		if per == 0 {
			per = 1
		}
		return int(domain%n)*per + int(addr%uint64(per))
	}
	return int(addr % uint64(u.cfg.TagEntries))
}

func (u *ReferenceUnit) phtPredict(idx int32) bool {
	return u.spec.ReferencePredict(u.entries[idx])
}

func (u *ReferenceUnit) phtUpdate(idx int32, taken bool) {
	if u.updateProb < 1 && u.rnd != nil && !u.rnd.Chance(u.updateProb) {
		return
	}
	u.entries[idx] = u.spec.ReferenceNext(u.entries[idx], taken)
}

// Lookup is a read-only prediction for one branch instance, as the
// reference predictor reports it.
type Lookup struct {
	// Taken is the predicted direction.
	Taken bool
	// BTBHit reports whether the BTB held a target for this branch.
	BTBHit bool
	// Target is the predicted target when BTBHit.
	Target uint64
	// UsedGshare reports whether the 2-level component supplied the
	// direction (false means 1-level or static).
	UsedGshare bool
	// Static reports that the branch is statically predicted
	// (sensitive range or StaticOnly mode) and will not update state.
	Static bool
}

// ReferenceLookup is the reference unit's prediction record: the
// predicted Lookup plus the component indexes that produced it, so
// Commit updates exactly that state.
type ReferenceLookup struct {
	Lookup

	tagHit     bool
	bimodalIdx int32
	gshareIdx  int32
	selIdx     int32
	tagIdx     int32
	btbIdx     int32
	domain     uint64
	addr       uint64
}

// Predict is the pre-refactor prediction path: all indexes recomputed
// eagerly with modulo reductions on every call.
func (u *ReferenceUnit) Predict(domain, addr uint64) ReferenceLookup {
	l := ReferenceLookup{
		domain:     domain,
		addr:       addr,
		bimodalIdx: int32(u.bimodalIndex(domain, addr)),
		gshareIdx:  int32(u.gshareIndex(domain, addr)),
		selIdx:     int32(addr % uint64(u.cfg.SelectorSize)),
		tagIdx:     int32(u.tagIndex(domain, addr)),
		btbIdx:     int32(addr % uint64(u.cfg.BTBEntries)),
	}
	if u.cfg.Mode == StaticOnly || u.sensitive(addr) {
		l.Static = true
		l.Taken = false
		l.BTBHit, l.Target = u.btbLookup(addr)
		return l
	}
	te := u.tags[l.tagIdx]
	l.tagHit = te.valid && te.addr == addr

	switch u.cfg.Mode {
	case BimodalOnly:
		l.Taken = u.phtPredict(l.bimodalIdx)
	case GshareOnly:
		l.Taken = u.phtPredict(l.gshareIdx)
		l.UsedGshare = true
	default: // Hybrid
		if l.tagHit && u.selector[l.selIdx] >= selectorThreshold {
			l.Taken = u.phtPredict(l.gshareIdx)
			l.UsedGshare = true
		} else {
			l.Taken = u.phtPredict(l.bimodalIdx)
		}
	}
	l.BTBHit, l.Target = u.btbLookup(addr)
	return l
}

func (u *ReferenceUnit) btbLookup(addr uint64) (bool, uint64) {
	e := u.btb[addr%uint64(u.cfg.BTBEntries)]
	if e.valid && e.addr == addr {
		return true, e.target
	}
	return false, 0
}

// Commit is the pre-refactor resolution path.
func (u *ReferenceUnit) Commit(l ReferenceLookup, taken bool, target uint64) (allocated bool) {
	if l.Static {
		return false
	}
	switch u.cfg.Mode {
	case BimodalOnly:
		u.phtUpdate(l.bimodalIdx, taken)
	case GshareOnly:
		u.phtUpdate(l.gshareIdx, taken)
	default:
		bim := u.phtPredict(l.bimodalIdx)
		gsh := u.phtPredict(l.gshareIdx)
		if bim != gsh {
			if gsh == taken {
				if u.selector[l.selIdx] < selectorMax {
					u.selector[l.selIdx]++
				}
			} else {
				if u.selector[l.selIdx] > 0 {
					u.selector[l.selIdx]--
				}
			}
		}
		u.phtUpdate(l.bimodalIdx, taken)
		if l.gshareIdx != l.bimodalIdx {
			u.phtUpdate(l.gshareIdx, taken)
		}
	}
	u.ghr = ((u.ghr << 1) | b2u(taken)) & u.ghrMask
	if !l.tagHit {
		u.selector[l.selIdx] = u.cfg.SelectorInit
	}
	u.tags[l.tagIdx] = tagEntry{valid: true, addr: l.addr}
	if taken {
		u.btb[l.addr%uint64(u.cfg.BTBEntries)] = btbEntry{valid: true, addr: l.addr, target: target}
	}
	return !l.tagHit
}

// GHR returns the reference unit's history register. Inspection hook.
func (u *ReferenceUnit) GHR() uint64 { return u.ghr }

// PHTState returns the raw FSM state of entry idx. Inspection hook.
func (u *ReferenceUnit) PHTState(idx int) uint8 { return u.entries[idx] }
