package bpu

import (
	"reflect"
	"strings"
	"testing"

	"branchscope/internal/fsm"
)

// execAt executes one branch at addr in domain through a freshly
// resolved site, as cpu.Context.BranchTo does.
func execAt(u *Unit, domain, addr uint64, taken bool, target uint64) (predicted, btbHit, allocated bool) {
	s := u.Resolve(domain, addr)
	return u.Exec(&s, taken, target)
}

func testConfig() Config {
	return Config{
		FSM:          fsm.Textbook2Bit(),
		PHTSize:      1024,
		SelectorSize: 512,
		GHRBits:      10,
		TagEntries:   256,
		BTBEntries:   256,
		Mode:         Hybrid,
		SelectorInit: 0,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		substr string
	}{
		{"missing-fsm", func(c *Config) { c.FSM = nil }, "FSM"},
		{"bad-pht", func(c *Config) { c.PHTSize = 0 }, "positive"},
		{"bad-selector", func(c *Config) { c.SelectorSize = -1 }, "positive"},
		{"bad-tag", func(c *Config) { c.TagEntries = 0 }, "positive"},
		{"bad-btb", func(c *Config) { c.BTBEntries = 0 }, "positive"},
		{"bad-ghr-low", func(c *Config) { c.GHRBits = 0 }, "GHRBits"},
		{"bad-ghr-high", func(c *Config) { c.GHRBits = 65 }, "GHRBits"},
		{"bad-selinit", func(c *Config) { c.SelectorInit = 16 }, "SelectorInit"},
		{"bad-domains", func(c *Config) { c.Mitigation = MitigationPartitioned; c.Domains = 1 }, "Domains"},
		{"bad-stochastic", func(c *Config) { c.Mitigation = MitigationStochasticFSM; c.StochasticP = 0 }, "StochasticP"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			c.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted broken config")
			}
			if !strings.Contains(err.Error(), c.substr) {
				t.Errorf("error %q does not mention %q", err, c.substr)
			}
		})
	}
	cfg := testConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(Config{})
}

func TestNewBranchUsesOneLevel(t *testing.T) {
	cfg := testConfig()
	cfg.SelectorInit = 15 // selector strongly prefers gshare
	u := New(cfg)
	if u.Predict(0, 0x1000).UsedGshare {
		t.Error("branch with no tag used the 2-level predictor")
	}
	execAt(u, 0, 0x1000, true, 0x2000)
	if !u.TagLive(0, 0x1000) {
		t.Error("tag not allocated after commit")
	}
	// Now the tag is live and the selector prefers gshare.
	if !u.Predict(0, 0x1000).UsedGshare {
		t.Error("tagged branch with gshare-leaning selector did not use gshare")
	}
}

func TestTagEvictionForcesOneLevel(t *testing.T) {
	cfg := testConfig()
	cfg.SelectorInit = 15
	u := New(cfg)
	addr := uint64(0x1000)
	execAt(u, 0, addr, true, 0)
	// An aliasing branch (same tag slot, different address) evicts it.
	alias := addr + uint64(cfg.TagEntries)
	execAt(u, 0, alias, false, 0)
	if u.TagLive(0, addr) {
		t.Fatal("tag survived aliasing branch")
	}
	if l := u.Predict(0, addr); l.UsedGshare {
		t.Error("evicted branch still predicted by gshare")
	}
}

func TestBimodalLearnsDirection(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = BimodalOnly
	u := New(cfg)
	addr := uint64(0x42)
	for i := 0; i < 3; i++ {
		execAt(u, 0, addr, true, 0)
	}
	if !u.Predict(0, addr).Taken {
		t.Error("bimodal did not learn taken after three taken outcomes")
	}
	for i := 0; i < 4; i++ {
		execAt(u, 0, addr, false, 0)
	}
	if u.Predict(0, addr).Taken {
		t.Error("bimodal did not learn not-taken")
	}
}

// TestHybridLearnsIrregularPattern is the §5.1 selection-logic experiment
// in miniature: an irregular 10-bit pattern is unpredictable for the
// 1-level component but learnable by gshare; after a handful of pattern
// iterations the hybrid should predict it almost perfectly.
func TestHybridLearnsIrregularPattern(t *testing.T) {
	u := New(testConfig())
	pattern := []bool{true, false, false, true, true, true, false, true, false, false}
	addr := uint64(0x5000)
	missesPerIter := make([]int, 20)
	for iter := 0; iter < 20; iter++ {
		for _, taken := range pattern {
			if predicted, _, _ := execAt(u, 0, addr, taken, 0); predicted != taken {
				missesPerIter[iter]++
			}
		}
	}
	early := missesPerIter[0]
	if early < 2 {
		t.Errorf("first iteration missed only %d/10; expected near-random", early)
	}
	for iter := 12; iter < 20; iter++ {
		if missesPerIter[iter] > 1 {
			t.Errorf("iteration %d still misses %d/10 after training", iter, missesPerIter[iter])
		}
	}
}

func TestStaticOnlyNeverLearns(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = StaticOnly
	u := New(cfg)
	addr := uint64(0x77)
	for i := 0; i < 10; i++ {
		if !u.Predict(0, addr).Static {
			t.Fatal("static mode lookup not marked Static")
		}
		if predicted, _, _ := execAt(u, 0, addr, true, 0x1234); predicted {
			t.Fatal("static predictor predicted taken")
		}
	}
	if u.TagLive(0, addr) {
		t.Error("static mode allocated a tag")
	}
	if hit, _ := u.btbLookup(addr); hit {
		t.Error("static mode updated the BTB")
	}
}

func TestBTBSemantics(t *testing.T) {
	u := New(testConfig())
	addr, target := uint64(0x9000), uint64(0xa000)
	// A not-taken branch must not install a BTB entry.
	if _, btbHit, _ := execAt(u, 0, addr, false, target); btbHit {
		t.Fatal("BTB hit before any execution")
	}
	if l := u.Predict(0, addr); l.BTBHit {
		t.Error("not-taken branch installed BTB entry")
	}
	// A taken branch installs it.
	execAt(u, 0, addr, true, target)
	if _, btbHit, _ := execAt(u, 0, addr, false, 0); !btbHit {
		t.Error("Exec missed the installed BTB entry")
	}
	l := u.Predict(0, addr)
	if !l.BTBHit || l.Target != target {
		t.Errorf("BTBHit=%v Target=%#x after taken commit", l.BTBHit, l.Target)
	}
	// An aliasing taken branch evicts it.
	alias := addr + uint64(u.cfg.BTBEntries)
	execAt(u, 0, alias, true, 0xbeef)
	if l := u.Predict(0, addr); l.BTBHit {
		t.Error("BTB entry survived aliasing taken branch")
	}
}

func TestGHRShifts(t *testing.T) {
	u := New(testConfig())
	for _, taken := range []bool{true, false, true, true} {
		execAt(u, 0, 0x10, taken, 0)
	}
	if got := u.ghr; got != 0b1011 {
		t.Errorf("GHR = %#b, want 0b1011", got)
	}
}

func TestGHRMasked(t *testing.T) {
	cfg := testConfig()
	cfg.GHRBits = 3
	u := New(cfg)
	for i := 0; i < 10; i++ {
		execAt(u, 0, 0x10, true, 0)
	}
	if got := u.ghr; got != 0b111 {
		t.Errorf("GHR = %#b, want 0b111 (3-bit mask)", got)
	}
}

func TestReset(t *testing.T) {
	u := New(testConfig())
	execAt(u, 0, 0x10, true, 0x20)
	u.Reset()
	if u.ghr != 0 || u.TagLive(0, 0x10) {
		t.Error("Reset left state behind")
	}
	if hit, _ := u.btbLookup(0x10); hit {
		t.Error("Reset left BTB entry")
	}
}

func TestRandomizedIndexBreaksCrossDomainCollision(t *testing.T) {
	cfg := testConfig()
	cfg.Mitigation = MitigationRandomizedIndex
	cfg.IndexKey = 0xfeedface
	u := New(cfg)
	addr := uint64(0x4000)
	// Same address, different domains: indices should differ for almost
	// any address; verify over several addresses that at least most
	// differ (hash collisions are possible but rare).
	same := 0
	for i := 0; i < 64; i++ {
		a := addr + uint64(i)*7
		if u.bimodalIndex(1, a) == u.bimodalIndex(2, a) {
			same++
		}
	}
	if same > 8 {
		t.Errorf("randomized index: %d/64 cross-domain collisions", same)
	}
}

func TestPartitionedDomainsDisjoint(t *testing.T) {
	cfg := testConfig()
	cfg.Mitigation = MitigationPartitioned
	cfg.Domains = 2
	u := New(cfg)
	for i := 0; i < 256; i++ {
		a := uint64(i) * 13
		i0 := u.bimodalIndex(0, a)
		i1 := u.bimodalIndex(1, a)
		if i0 >= cfg.PHTSize/2 {
			t.Fatalf("domain 0 index %d in domain 1 partition", i0)
		}
		if i1 < cfg.PHTSize/2 {
			t.Fatalf("domain 1 index %d in domain 0 partition", i1)
		}
	}
}

func TestSensitiveRangeStatic(t *testing.T) {
	cfg := testConfig()
	cfg.Mitigation = MitigationNoPredictSensitive
	u := New(cfg)
	u.MarkSensitive(0x1000, 0x2000)
	if !u.Predict(0, 0x1800).Static {
		t.Fatal("sensitive branch not statically predicted")
	}
	execAt(u, 0, 0x1800, true, 0x9999)
	if u.TagLive(0, 0x1800) {
		t.Error("sensitive branch allocated a tag")
	}
	// Outside the range prediction is dynamic.
	if l := u.Predict(0, 0x3000); l.Static {
		t.Error("non-sensitive branch statically predicted")
	}
}

func TestSnapshotRestore(t *testing.T) {
	u := New(testConfig())
	for i := 0; i < 50; i++ {
		execAt(u, 0, uint64(i*3), i%3 == 0, uint64(i))
	}
	snap := u.Snapshot()
	ghr := u.ghr
	for i := 0; i < 50; i++ {
		execAt(u, 0, uint64(i*5), i%2 == 0, 0)
	}
	u.Restore(snap)
	if u.ghr != ghr {
		t.Error("GHR not restored")
	}
	// Behavioural check: predictions after restore match predictions
	// taken right after the snapshot point.
	u2 := New(testConfig())
	for i := 0; i < 50; i++ {
		execAt(u2, 0, uint64(i*3), i%3 == 0, uint64(i))
	}
	for i := 0; i < 20; i++ {
		a := uint64(i * 7)
		if u.Predict(0, a).Taken != u2.Predict(0, a).Taken {
			t.Fatalf("restored unit diverges at addr %#x", a)
		}
	}
}

// TestSnapshotIntoMatches: SnapshotInto records what Snapshot does and
// reuses its buffers, and MatchesSnapshot sees a change to any one part
// of the state.
func TestSnapshotIntoMatches(t *testing.T) {
	u := New(testConfig())
	for i := 0; i < 200; i++ {
		execAt(u, 0, uint64(i*3), i%3 == 0, uint64(i))
	}
	var s Snapshot
	u.SnapshotInto(&s)
	if !reflect.DeepEqual(&s, u.Snapshot()) {
		t.Fatal("SnapshotInto differs from Snapshot")
	}
	if !u.MatchesSnapshot(&s) {
		t.Fatal("unit does not match its own snapshot")
	}
	if a := testing.AllocsPerRun(10, func() { u.SnapshotInto(&s) }); a != 0 {
		t.Errorf("SnapshotInto into a used record allocates %.0f objects, want 0", a)
	}
	for _, c := range []struct {
		part    string
		perturb func()
	}{
		{"pht", func() { u.phtEntries[3]++ }},
		{"selector", func() { u.selector[5]++ }},
		{"ghr", func() { u.ghr ^= 1 }},
		{"tags", func() { u.tags[7].addr++ }},
		{"btb", func() { u.btb[9].target++ }},
	} {
		u.Restore(&s)
		c.perturb()
		if u.MatchesSnapshot(&s) {
			t.Errorf("a changed %s still matches the snapshot", c.part)
		}
	}
}

// TestRepeatDiagnostics: k repeats of the diagnostics accrued since a
// record add k times that delta to the commit and mispredict counts and
// to every heatmap set.
func TestRepeatDiagnostics(t *testing.T) {
	u := New(testConfig())
	var d Diagnostics
	u.DiagnosticsInto(&d)
	for i := 0; i < 300; i++ {
		execAt(u, 0, uint64(i*5), i%2 == 0, 0)
	}
	once := u.Introspect()
	u.RepeatDiagnostics(&d, 3)
	got := u.Introspect()
	if got.Commits != 4*once.Commits || got.Mispredicts != 4*once.Mispredicts {
		t.Errorf("commits/mispredicts %d/%d after 3 repeats, want %d/%d",
			got.Commits, got.Mispredicts, 4*once.Commits, 4*once.Mispredicts)
	}
	if once.Mispredicts == 0 {
		t.Fatal("the sequence mispredicted nothing; the heatmap check is vacuous")
	}
	for i, h := range once.Heatmap {
		if got.Heatmap[i] != 4*h {
			t.Errorf("heatmap set %d = %d after 3 repeats, want %d", i, got.Heatmap[i], 4*h)
		}
	}
}

func TestModeMitigationStrings(t *testing.T) {
	for _, m := range []Mode{Hybrid, BimodalOnly, GshareOnly, StaticOnly, Mode(9)} {
		if m.String() == "" {
			t.Error("empty Mode string")
		}
	}
	for _, m := range []Mitigation{MitigationNone, MitigationRandomizedIndex,
		MitigationPartitioned, MitigationNoPredictSensitive, MitigationStochasticFSM, Mitigation(9)} {
		if m.String() == "" {
			t.Error("empty Mitigation string")
		}
	}
}

func TestCommitReportsAllocation(t *testing.T) {
	u := New(testConfig())
	addr := uint64(0x3000)
	if _, _, allocated := execAt(u, 0, addr, true, 0); !allocated {
		t.Error("first execution did not report a tag allocation")
	}
	if _, _, allocated := execAt(u, 0, addr, true, 0); allocated {
		t.Error("repeat execution reported an allocation")
	}
	// Evict and return: allocation again.
	alias := addr + uint64(u.cfg.TagEntries)
	execAt(u, 0, alias, false, 0)
	if _, _, allocated := execAt(u, 0, addr, true, 0); !allocated {
		t.Error("post-eviction execution did not report an allocation")
	}
}

func TestStaticCommitReportsNoAllocation(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = StaticOnly
	u := New(cfg)
	if _, _, allocated := execAt(u, 0, 0x40, true, 0); allocated {
		t.Error("static execution reported an allocation")
	}
}

func TestFlushBTB(t *testing.T) {
	u := New(testConfig())
	execAt(u, 0, 0x50, true, 0x60)
	if hit, _ := u.btbLookup(0x50); !hit {
		t.Fatal("BTB entry not installed")
	}
	u.FlushBTB()
	if hit, _ := u.btbLookup(0x50); hit {
		t.Error("BTB entry survived flush")
	}
	// Direction prediction is unaffected by the flush.
	if !u.Predict(0, 0x50).Taken {
		t.Error("direction state was clobbered by a BTB flush")
	}
}
