// Package bpu implements the branch prediction unit of the simulated
// cores: a hybrid (tournament) directional predictor in the style of
// McFarling's combining predictor — the organization the paper reverse
// engineers on Intel parts (§2, Figure 1) — plus the branch target buffer.
//
// The unit is composed of:
//
//   - a pattern history table (PHT) of saturating counters, shared by the
//     two component predictors, which index it differently;
//   - a 1-level (bimodal) component indexed purely by branch address;
//   - a 2-level (gshare) component indexed by address XOR global history;
//   - a selector table that learns which component predicts a given
//     branch better;
//   - a tagged "seen branch" tracker. A branch whose tag is absent (new,
//     or evicted by other branch-intensive code) is predicted by the
//     1-level component regardless of the selector — the behaviour
//     BranchScope establishes experimentally in §5.1 and then exploits to
//     force 1-level mode;
//   - a direct-mapped BTB holding targets of taken branches (§2), used
//     for the baseline BTB attack and the timing model.
//
// The unit also implements the §10.2 hardware mitigations (randomized PHT
// indexing, static partitioning, no-prediction for marked sensitive
// ranges, stochastic FSM updates) behind Config switches so the
// mitigation study can measure the attack against each.
package bpu

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"

	"branchscope/internal/fsm"
	"branchscope/internal/pht"
	"branchscope/internal/rng"
)

// Mode selects which component predictors are active. Hybrid is the
// realistic configuration; the single-component modes exist for ablation
// studies and the Fig 2 analysis.
type Mode int

const (
	// Hybrid combines bimodal and gshare behind the selector.
	Hybrid Mode = iota
	// BimodalOnly always uses the 1-level predictor.
	BimodalOnly
	// GshareOnly always uses the 2-level predictor.
	GshareOnly
	// StaticOnly always predicts not-taken and never learns.
	StaticOnly
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case BimodalOnly:
		return "bimodal"
	case GshareOnly:
		return "gshare"
	case StaticOnly:
		return "static"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Mitigation selects one of the §10.2 hardware defenses.
type Mitigation int

const (
	// MitigationNone is the unprotected baseline.
	MitigationNone Mitigation = iota
	// MitigationRandomizedIndex hashes the branch address with a
	// per-security-domain key before indexing the PHT, so cross-domain
	// collisions are unpredictable.
	MitigationRandomizedIndex
	// MitigationPartitioned statically splits the PHT (and selector and
	// tag tracker) between security domains, removing sharing entirely.
	MitigationPartitioned
	// MitigationNoPredictSensitive disables dynamic prediction — and all
	// predictor updates — for branches inside ranges the software marked
	// sensitive; those branches use static not-taken prediction.
	MitigationNoPredictSensitive
	// MitigationStochasticFSM applies PHT counter updates only with a
	// configured probability, degrading the attacker's inference.
	MitigationStochasticFSM
)

// String implements fmt.Stringer.
func (m Mitigation) String() string {
	switch m {
	case MitigationNone:
		return "none"
	case MitigationRandomizedIndex:
		return "randomized-index"
	case MitigationPartitioned:
		return "partitioned"
	case MitigationNoPredictSensitive:
		return "no-predict-sensitive"
	case MitigationStochasticFSM:
		return "stochastic-fsm"
	}
	return fmt.Sprintf("Mitigation(%d)", int(m))
}

// Config describes a branch prediction unit. All sizes must be positive;
// see Validate.
type Config struct {
	// FSM is the per-entry counter specification.
	FSM *fsm.Spec
	// PHTSize is the number of PHT entries (16384 on the paper's
	// Skylake part, per the §6.3 reverse engineering).
	PHTSize int
	// SelectorSize is the number of selector counters.
	SelectorSize int
	// GHRBits is the length of the global history register.
	GHRBits int
	// TagEntries is the size of the seen-branch tracker.
	TagEntries int
	// BTBEntries is the size of the branch target buffer.
	BTBEntries int
	// Mode selects the active components.
	Mode Mode
	// SelectorInit is the initial selector counter value (0..15 for the
	// 4-bit selector counters; >= 8 prefers gshare). Higher values model
	// cores that migrate to the 2-level predictor sooner.
	SelectorInit uint8

	// Mitigation and its parameters.
	Mitigation      Mitigation
	IndexKey        uint64  // base key for MitigationRandomizedIndex
	Domains         int     // partition count for MitigationPartitioned
	StochasticP     float64 // update probability for MitigationStochasticFSM
	mitigationSeed  uint64
	sensitiveRanges []addrRange
}

type addrRange struct{ lo, hi uint64 }

// Validate reports whether the configuration is usable.
func (c *Config) Validate() error {
	if c.FSM == nil {
		return fmt.Errorf("bpu: config missing FSM spec")
	}
	if c.PHTSize <= 0 || c.SelectorSize <= 0 || c.TagEntries <= 0 || c.BTBEntries <= 0 {
		return fmt.Errorf("bpu: table sizes must be positive (pht=%d sel=%d tag=%d btb=%d)",
			c.PHTSize, c.SelectorSize, c.TagEntries, c.BTBEntries)
	}
	if c.GHRBits < 1 || c.GHRBits > 64 {
		return fmt.Errorf("bpu: GHRBits must be in [1,64], got %d", c.GHRBits)
	}
	if c.SelectorInit > selectorMax {
		return fmt.Errorf("bpu: SelectorInit must be in [0,%d], got %d", selectorMax, c.SelectorInit)
	}
	if c.Mitigation == MitigationPartitioned && c.Domains < 2 {
		return fmt.Errorf("bpu: partitioned mitigation needs Domains >= 2, got %d", c.Domains)
	}
	if c.Mitigation == MitigationStochasticFSM && (c.StochasticP <= 0 || c.StochasticP > 1) {
		return fmt.Errorf("bpu: stochastic mitigation needs StochasticP in (0,1], got %v", c.StochasticP)
	}
	return nil
}

// The selector table uses 4-bit saturating counters: values of
// selectorThreshold and above choose the 2-level (gshare) component. The
// width is an observable model choice — it sets how many net wins the
// 2-level predictor needs before the selection flips, which the paper's
// Figure 2 measures at roughly five to seven pattern iterations.
const (
	selectorMax       = 15
	selectorThreshold = 8
)

type tagEntry struct {
	valid bool
	addr  uint64
}

type btbEntry struct {
	valid  bool
	addr   uint64
	target uint64
}

// Unit is a branch prediction unit. One Unit is shared per physical core;
// it is not safe for concurrent use (the simulated core executes one
// hardware context at a time).
type Unit struct {
	cfg      Config
	pht      *pht.Table
	selector []uint8
	ghr      uint64
	ghrMask  uint64
	tags     []tagEntry
	btb      []btbEntry

	// epoch versions the index-function layout. It starts at 1 (so a
	// zero-valued Site is never considered current) and is bumped by
	// MarkSensitive, the only post-construction mutation that changes
	// how addresses resolve. Cached Sites revalidate against it.
	epoch uint32

	// Inline PHT step: the table's live entry array (see pht.Raw), the
	// FSM's per-state predicted direction and its transition plane
	// (phtNext[state][b] is the successor after outcome b, 1 = taken),
	// both copied into arrays indexed by any uint8 counter state so
	// neither lookup needs a bounds check, and whether updates may
	// bypass the stochastic check. Exec predicts and trains the table
	// through these with no cross-package calls.
	phtEntries []uint8
	phtPred    [256]bool
	phtNext    [256][2]uint8
	phtFast    bool

	// Introspection diagnostics (not architectural state): lifetime
	// commit/mispredict counts and a coarse per-set mispredict heatmap.
	// Deliberately excluded from Snapshot/Restore — the PHT mapper's
	// memoized replays must not rewind monotonic diagnostics.
	commits     uint64
	mispredicts uint64
	heat        []uint64
	// heatShift maps a PHT index to its heatmap set as idx>>heatShift
	// when PHTSize is len(heat) times a power of two, as in every
	// model; it is -1 for other sizes, which divide.
	heatShift int
}

// New constructs a Unit from cfg. It panics if cfg is invalid: a broken
// BPU configuration is a programming error in the simulator setup, not a
// runtime condition.
func New(cfg Config) *Unit {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := heatSets(cfg.PHTSize)
	u := &Unit{
		cfg:       cfg,
		pht:       pht.New(cfg.FSM, cfg.PHTSize),
		selector:  make([]uint8, cfg.SelectorSize),
		ghrMask:   (uint64(1) << uint(cfg.GHRBits)) - 1,
		tags:      make([]tagEntry, cfg.TagEntries),
		btb:       make([]btbEntry, cfg.BTBEntries),
		epoch:     1,
		heat:      make([]uint64, sets),
		heatShift: heatShift(cfg.PHTSize, sets),
	}
	if cfg.Mitigation == MitigationStochasticFSM {
		u.pht.SetStochastic(cfg.StochasticP, rng.New(cfg.mitigationSeed+0x5eed))
	}
	var plane []uint8
	u.phtEntries, plane = u.pht.Raw()
	for st := range int(cfg.FSM.States) {
		u.phtPred[st] = cfg.FSM.Predict(uint8(st))
		u.phtNext[st] = [2]uint8{plane[st<<1], plane[st<<1|1]}
	}
	u.phtFast = !u.pht.Stochastic()
	u.resetSelector()
	return u
}

// heatShift returns k when phtSize == sets<<k, so that
// idx*sets/phtSize == idx>>k for every index, and -1 otherwise.
func heatShift(phtSize, sets int) int {
	if phtSize%sets != 0 {
		return -1
	}
	r := uint(phtSize / sets)
	if r&(r-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(r)
}

// heatSet returns the heatmap set of PHT entry idx.
func (u *Unit) heatSet(idx int32) int {
	if u.heatShift >= 0 {
		return int(idx) >> u.heatShift
	}
	return int(idx) * len(u.heat) / u.cfg.PHTSize
}

// MarkSensitive registers [lo, hi) as a software-marked sensitive code
// range for MitigationNoPredictSensitive. Ranges accumulate. Marking a
// range invalidates every cached Site (epoch bump) so batched plans
// resolved before the call observe the new layout.
func (u *Unit) MarkSensitive(lo, hi uint64) {
	u.cfg.sensitiveRanges = append(u.cfg.sensitiveRanges, addrRange{lo, hi})
	u.epoch++
}

func (u *Unit) sensitive(addr uint64) bool {
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

func (u *Unit) resetSelector() {
	for i := range u.selector {
		u.selector[i] = u.cfg.SelectorInit
	}
}

// domainKey derives the effective randomized-index key for a domain.
func (u *Unit) domainKey(domain uint64) uint64 {
	return u.cfg.IndexKey ^ (domain * 0x9e3779b97f4a7c15)
}

// phtSpan returns the slice of the PHT available to a domain: the whole
// table normally, a static partition slice under MitigationPartitioned.
func (u *Unit) phtSpan(domain uint64) (base, size int) {
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

func (u *Unit) bimodalIndex(domain, addr uint64) int {
	base, size := u.phtSpan(domain)
	if u.cfg.Mitigation == MitigationRandomizedIndex {
		return base + pht.KeyedIndex(addr, u.domainKey(domain), size)
	}
	return base + pht.BimodalIndex(addr, size)
}

func (u *Unit) tagIndex(domain, addr uint64) int {
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

// Site is the resolved indexing state of one static branch site for one
// security domain: every index that does not depend on mutable predictor
// state, computed once and reused across executions. The gshare index is
// the exception — it depends on the GHR — so the Site keeps the folded
// address (and, under the randomized-index mitigation, the domain key)
// and finishes that index per prediction.
//
// A zero Site is valid and simply resolves on first use; Sites
// revalidate against the unit's layout epoch, so holding one across
// MarkSensitive is safe.
type Site struct {
	addr   uint64
	domain uint64
	gFold  uint64 // pht.Fold(addr), XORed with the GHR at predict time
	gKey   uint64 // per-domain key when gKeyed

	bimodalIdx int32
	selIdx     int32
	tagIdx     int32
	btbIdx     int32
	gBase      int32 // partition base of the domain's PHT span
	gSize      int32 // partition size of the domain's PHT span

	epoch  uint32
	static bool
	gKeyed bool // randomized-index mitigation active
}

// Addr returns the branch address the site was resolved for.
func (s *Site) Addr() uint64 { return s.addr }

// Resolve computes the Site for a branch at addr in the given domain.
func (u *Unit) Resolve(domain, addr uint64) Site {
	var s Site
	u.ResolveInto(&s, domain, addr)
	return s
}

// ResolveInto is Resolve writing into a caller-owned Site, avoiding the
// return-value copy on hot compile paths.
func (u *Unit) ResolveInto(s *Site, domain, addr uint64) {
	base, size := u.phtSpan(domain)
	*s = Site{
		addr:       addr,
		domain:     domain,
		epoch:      u.epoch,
		static:     u.cfg.Mode == StaticOnly || u.sensitive(addr),
		bimodalIdx: int32(u.bimodalIndex(domain, addr)),
		selIdx:     int32(pht.IndexMod(addr, u.cfg.SelectorSize)),
		tagIdx:     int32(u.tagIndex(domain, addr)),
		btbIdx:     int32(pht.IndexMod(addr, u.cfg.BTBEntries)),
		gFold:      pht.Fold(addr),
		gBase:      int32(base),
		gSize:      int32(size),
	}
	if u.cfg.Mitigation == MitigationRandomizedIndex {
		s.gKeyed = true
		s.gKey = u.domainKey(domain)
	}
}

// choose is the prediction rule for a dynamically predicted site: it
// finishes the GHR-dependent gshare index, looks the branch up in the
// seen-branch tracker, and reports whether the 2-level component
// supplies the direction.
func (u *Unit) choose(s *Site) (gIdx int32, tagHit, useGshare bool) {
	if s.gKeyed {
		gIdx = s.gBase + int32(pht.KeyedIndex(s.addr^(u.ghr<<1), s.gKey, int(s.gSize)))
	} else {
		gIdx = s.gBase + int32(pht.IndexMod(s.gFold^u.ghr, int(s.gSize)))
	}
	te := &u.tags[s.tagIdx]
	tagHit = te.valid && te.addr == s.addr
	switch u.cfg.Mode {
	case BimodalOnly:
	case GshareOnly:
		useGshare = true
	default: // Hybrid
		// A branch without a live tag is new to the unit: the 2-level
		// predictor has no usable history for it, so the 1-level
		// prediction is used (§5.1).
		useGshare = tagHit && u.selector[s.selIdx] >= selectorThreshold
	}
	return gIdx, tagHit, useGshare
}

// Exec executes one instance of the branch at s, with its actual
// direction and taken-target: the per-branch step of the unit. It
// predicts the branch, then commits the outcome to the direction
// predictor, history, tags and BTB, reading each table entry once. It
// reports the predicted direction, whether the BTB held the branch's
// target, and whether the branch was newly allocated in the seen-branch
// tracker (a tag miss) — the churn signal the internal/detect hardware
// countermeasure monitors.
//
// The Site revalidates, re-resolving in place, if the unit's index
// layout changed since it was built.
func (u *Unit) Exec(s *Site, taken bool, target uint64) (predicted, btbHit, allocated bool) {
	if s.epoch != u.epoch {
		u.ResolveInto(s, s.domain, s.addr)
	}
	be := &u.btb[s.btbIdx]
	btbHit = be.valid && be.addr == s.addr
	if s.static {
		// Sensitive/static branches are predicted not-taken and leave no
		// trace in the BPU; that is the entire point of the mitigation
		// (§10.2 "avoid updating any BPU structures after such branches
		// are executed"). The BTB is also left untouched.
		return false, btbHit, false
	}
	gIdx, tagHit, useGshare := u.choose(s)
	bIdx := s.bimodalIdx
	e := u.phtEntries
	bState, gState := e[bIdx], e[gIdx]
	bPred, gPred := u.phtPred[bState], u.phtPred[gState]
	predicted, idx := bPred, bIdx
	if useGshare {
		predicted, idx = gPred, gIdx
	}
	u.commits++
	if predicted != taken {
		u.mispredicts++
		u.heat[u.heatSet(idx)]++
	}

	// Train the PHT: a single-component mode trains its component; the
	// hybrid first trains the selector on disagreement, using each
	// component's pre-update prediction, then lets both components
	// observe the outcome (shared physical PHT).
	i1, s1, i2, s2 := bIdx, bState, int32(-1), uint8(0)
	switch u.cfg.Mode {
	case BimodalOnly:
	case GshareOnly:
		i1, s1 = gIdx, gState
	default:
		if bPred != gPred {
			sel := &u.selector[s.selIdx]
			if gPred == taken {
				if *sel < selectorMax {
					*sel++
				}
			} else if *sel > 0 {
				*sel--
			}
		}
		if gIdx != bIdx {
			i2, s2 = gIdx, gState
		}
	}
	tb := b2u(taken)
	if u.phtFast {
		e[i1] = u.phtNext[s1][tb&1]
		if i2 >= 0 {
			e[i2] = u.phtNext[s2][tb&1]
		}
	} else {
		// The §10.2 stochastic table keeps its slow path and its
		// per-update draw order.
		u.pht.Update(int(i1), taken)
		if i2 >= 0 {
			u.pht.Update(int(i2), taken)
		}
	}

	// History and allocation. Allocating a tag for a branch the unit has
	// not seen recently also restarts the predictor choice for its
	// selector slot: a new branch begins life on the 1-level predictor
	// and must re-earn the 2-level choice (§5.1's observed behaviour —
	// "for new branches whose information is not stored in the predictor
	// history, the 1-level predictor is used").
	u.ghr = (u.ghr<<1 | tb) & u.ghrMask
	if !tagHit {
		u.selector[s.selIdx] = u.cfg.SelectorInit
	}
	u.tags[s.tagIdx] = tagEntry{valid: true, addr: s.addr}

	// The BTB stores the target only when the branch is taken (§1: "the
	// target of a conditional branch is updated only when the branch is
	// taken").
	if taken {
		*be = btbEntry{valid: true, addr: s.addr, target: target}
	}
	return predicted, btbHit, !tagHit
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// FlushBTB invalidates every BTB entry. It models the BTB-flush-on-
// context-switch defense deployed against BTB-based attacks (§9.2 notes
// such attacks "do not work on recent Intel processors"); BranchScope is
// unaffected by it because it never relies on BTB state.
func (u *Unit) FlushBTB() {
	for i := range u.btb {
		u.btb[i] = btbEntry{}
	}
}

// Snapshot captures the complete unit state for checkpoint/replay (used
// by the PHT mapper harness as a memoization of deterministic re-runs).
type Snapshot struct {
	pht      []uint8
	selector []uint8
	ghr      uint64
	tags     []tagEntry
	btb      []btbEntry
}

// Snapshot returns a deep copy of the unit state.
func (u *Unit) Snapshot() *Snapshot {
	s := new(Snapshot)
	u.SnapshotInto(s)
	return s
}

// SnapshotInto copies the unit state into s, reusing its buffers, so a
// caller that records the state often allocates only on its first call.
func (u *Unit) SnapshotInto(s *Snapshot) {
	s.pht = append(s.pht[:0], u.phtEntries...)
	s.selector = append(s.selector[:0], u.selector...)
	s.ghr = u.ghr
	s.tags = append(s.tags[:0], u.tags...)
	s.btb = append(s.btb[:0], u.btb...)
}

// MatchesSnapshot reports whether the unit state equals s, a snapshot
// of this unit (or of an identically configured one). It compares the
// cheap, often-changing parts first.
func (u *Unit) MatchesSnapshot(s *Snapshot) bool {
	return u.ghr == s.ghr &&
		bytes.Equal(u.phtEntries, s.pht) &&
		bytes.Equal(u.selector, s.selector) &&
		slices.Equal(u.tags, s.tags) &&
		slices.Equal(u.btb, s.btb)
}

// Deterministic reports whether the unit draws no randomness, which
// holds unless the §10.2 stochastic-FSM mitigation is configured. The
// state after a branch sequence is then a function of the state before
// it.
func (u *Unit) Deterministic() bool { return u.phtFast }

// Diagnostics is a record of the unit's lifetime diagnostics (commit
// and mispredict counts and the heatmap) for RepeatDiagnostics.
type Diagnostics struct {
	commits, mispredicts uint64
	heat                 []uint64
}

// DiagnosticsInto records the unit's diagnostics into d, reusing its
// buffer.
func (u *Unit) DiagnosticsInto(d *Diagnostics) {
	d.commits, d.mispredicts = u.commits, u.mispredicts
	d.heat = append(d.heat[:0], u.heat...)
}

// RepeatDiagnostics adds k times the diagnostics accrued since d was
// recorded: the accounting of k more executions of a branch sequence
// that would each repeat the one since d exactly.
func (u *Unit) RepeatDiagnostics(d *Diagnostics, k uint64) {
	u.commits += k * (u.commits - d.commits)
	u.mispredicts += k * (u.mispredicts - d.mispredicts)
	for i, h := range d.heat {
		u.heat[i] += k * (u.heat[i] - h)
	}
}

// Restore reinstates a snapshot taken from this unit (or an identically
// configured one).
func (u *Unit) Restore(s *Snapshot) {
	u.pht.Restore(s.pht)
	copy(u.selector, s.selector)
	u.ghr = s.ghr
	copy(u.tags, s.tags)
	copy(u.btb, s.btb)
}
