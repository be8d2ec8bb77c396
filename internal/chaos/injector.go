package chaos

import (
	"branchscope/internal/cpu"
	"branchscope/internal/noise"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/telemetry"
)

// Region is the virtual address base of chaos burst code. Distinct from
// noise.DefaultRegion and from all attack/victim code: like background
// noise, preemption bursts interfere only through predictor and icache
// aliasing, never by touching attack addresses directly.
const Region uint64 = 0x7e00_0000_0000

// burstSpan is the address span of preemption-burst code. Wide enough
// to splatter entries across the whole PHT of every modeled part.
const burstSpan uint64 = 1 << 22

// pmcSaturated is the value a saturated counter read reports: a
// recognizably absurd reading, as a wedged perf slot produces.
const pmcSaturated = uint64(1) << 62

// Default fault parameters, applied when a Spec leaves Span/Magnitude
// zero. Documented in DESIGN §3.15.
const (
	defaultPreemptBurst = 2500 // instructions run while the spy is descheduled
	defaultMigrateSpan  = 8    // episodes spent on the wrong core
	defaultPMCSpan      = 4    // episodes of perf readout glitches
	defaultPMCMagnitude = 3    // additive PMC corruption bound
	defaultTSCSpan      = 150  // episodes of shifted rdtscp baseline
	defaultTSCShift     = 70   // cycles added per TSC read at full shift
	defaultVictimExtra  = 2    // extra victim iterations bound
)

// Stepper matches core.Stepper structurally; chaos sits below the
// attack layer and must not import it.
type Stepper interface {
	StepBranches(k int) bool
}

// Injector realizes a Plan against one simulated machine. It owns a
// hardware context of its own (a foreign process, from the predictor's
// point of view) for preemption bursts, and installs cpu.ReadFaults for
// the readout faults. The harness marks episode boundaries with
// BeforeStep/AfterStep; harnesses without episode structure (the
// phtmap mapper) use SelfClock to synthesize boundaries from counter
// reads instead.
//
// All randomness comes from streams derived from Plan.Seed, advanced in
// program order on the single goroutine that runs the machine — the
// fault schedule is a pure function of (plan, episode sequence).
type Injector struct {
	plan  Plan
	core  *cpu.Core
	ctx   *cpu.Context
	burst *noise.Burst
	r     *rng.Source // schedule stream: what fires when
	reads *rng.Source // readout stream: per-read corruption values

	selfClock int // counter reads per synthetic episode (0: episode-driven)
	readTick  int

	episode     uint64
	preemptNow  bool // a preemption fires this episode...
	preemptPost bool // ...after the victim step rather than before it
	migrateLeft int
	pmcLeft     int
	pmcSat      bool
	tscLeft     int
	tscShift    uint64

	ctr injCounters
}

type injCounters struct {
	episodes    *telemetry.Counter
	preemptions *telemetry.Counter
	migrations  *telemetry.Counter
	pmcWindows  *telemetry.Counter
	tscWindows  *telemetry.Counter
	victimSlows *telemetry.Counter
	badReads    *telemetry.Counter
}

// NewInjector attaches a fault injector to a machine. It allocates a
// chaos process context and installs the core read-fault hooks; call
// Detach when the plan's reign ends. With a disabled plan it still
// returns a working injector that injects nothing, so harness wiring
// needs no special case.
func NewInjector(sys *sched.System, plan Plan) *Injector {
	r := rng.New(plan.Seed)
	i := &Injector{
		plan:  plan,
		core:  sys.Core(),
		ctx:   sys.NewProcess("chaos"),
		burst: noise.NewBurst(r.Uint64(), Region, burstSpan),
		r:     r.Split(),
		reads: r.Split(),
	}
	tel := sys.Telemetry()
	i.ctr = injCounters{
		episodes:    tel.Counter("chaos.episodes"),
		preemptions: tel.Counter("chaos.preemptions"),
		migrations:  tel.Counter("chaos.migrations"),
		pmcWindows:  tel.Counter("chaos.pmc_windows"),
		tscWindows:  tel.Counter("chaos.tsc_windows"),
		victimSlows: tel.Counter("chaos.victim_jitters"),
		badReads:    tel.Counter("chaos.corrupted_reads"),
	}
	i.core.SetReadFaults(cpu.ReadFaults{PMC: i.pmcFault, TSCExtra: i.tscExtra})
	return i
}

// Detach removes the injector's read-fault hooks from the core. The
// chaos context stays allocated (contexts are never reclaimed), but no
// further faults fire.
func (i *Injector) Detach() { i.core.SetReadFaults(cpu.ReadFaults{}) }

// SelfClock makes the injector synthesize an episode boundary every
// readsPerEpisode counter reads, for harnesses that never call
// BeforeStep (the phtmap mapper probes in a flat loop). Pass 0 to
// return to episode-driven operation.
func (i *Injector) SelfClock(readsPerEpisode int) {
	i.selfClock = readsPerEpisode
	i.readTick = 0
}

// BeforeStep marks an episode boundary: the spy has primed and is about
// to release the victim. Faults scheduled for this episode arm here,
// and a preemption drawn for the prime→step gap fires immediately —
// foreign code runs on the spy's core while the spy believes its primed
// state is intact.
func (i *Injector) BeforeStep() {
	i.advance()
	if i.preemptNow && !i.preemptPost {
		i.preemptNow = false
		i.runPreempt()
	}
}

// AfterStep marks the step→probe gap of the current episode; a
// preemption drawn for that side fires here, between the victim's
// secret-dependent branch and the spy's probe.
func (i *Injector) AfterStep() {
	if i.preemptNow && i.preemptPost {
		i.preemptNow = false
		i.runPreempt()
	}
}

// advance opens a new episode: windowed faults age, and this episode's
// fault draws are made. Draw order is fixed, so the schedule depends
// only on the plan and the episode index.
func (i *Injector) advance() {
	i.episode++
	i.ctr.episodes.Inc()
	if i.migrateLeft > 0 {
		i.migrateLeft--
	}
	if i.pmcLeft > 0 {
		i.pmcLeft--
	}
	if i.tscLeft > 0 {
		i.tscLeft--
		if i.tscLeft == 0 {
			i.tscShift = 0
		}
	}
	p := &i.plan
	if i.r.Chance(p.Preempt.Prob) {
		i.preemptNow = true
		i.preemptPost = i.r.Bool()
		i.ctr.preemptions.Inc()
	}
	if i.migrateLeft == 0 && i.r.Chance(p.Migrate.Prob) {
		i.migrateLeft = orDefault(p.Migrate.Span, defaultMigrateSpan)
		i.ctr.migrations.Inc()
	}
	if i.pmcLeft == 0 && i.r.Chance(p.PMCCorrupt.Prob) {
		i.pmcLeft = orDefault(p.PMCCorrupt.Span, defaultPMCSpan)
		i.pmcSat = i.r.Bool()
		i.ctr.pmcWindows.Inc()
	}
	if i.tscLeft == 0 && i.r.Chance(p.TSCJitter.Prob) {
		i.tscLeft = orDefault(p.TSCJitter.Span, defaultTSCSpan)
		mag := uint64(orDefault(p.TSCJitter.Magnitude, defaultTSCShift))
		i.tscShift = mag/2 + i.r.Uint64n(mag/2+1)
		i.ctr.tscWindows.Inc()
	}
}

// runPreempt executes the descheduled window: branch-dense foreign code
// on the chaos context. Interference reaches the spy purely through PHT
// and icache aliasing, like a real context switch.
func (i *Injector) runPreempt() {
	i.burst.Run(i.ctx, orDefault(i.plan.Preempt.Magnitude, defaultPreemptBurst))
}

// pmcFault is the core's PMC read hook.
func (i *Injector) pmcFault(e cpu.Event, v uint64) uint64 {
	i.tick()
	switch {
	case i.migrateLeft > 0:
		// On a foreign core the probed counters describe somebody
		// else's predictor entry: unrelated values.
		i.ctr.badReads.Inc()
		return i.reads.Uint64n(1 << 16)
	case i.pmcLeft > 0:
		i.ctr.badReads.Inc()
		if i.pmcSat {
			return pmcSaturated
		}
		return v + i.reads.Uint64n(uint64(orDefault(i.plan.PMCCorrupt.Magnitude, defaultPMCMagnitude))+1)
	}
	return v
}

// tscExtra is the core's TSC read hook: the active baseline shift plus
// migration turbulence.
func (i *Injector) tscExtra() uint64 {
	i.tick()
	extra := i.tscShift
	if i.migrateLeft > 0 {
		extra += i.reads.Uint64n(160)
	}
	return extra
}

// tick drives the self-clocked mode: every selfClock counter reads
// counts as one episode. A preemption drawn here fires immediately —
// there is no step boundary to defer it to.
func (i *Injector) tick() {
	if i.selfClock <= 0 {
		return
	}
	i.readTick++
	if i.readTick < i.selfClock {
		return
	}
	i.readTick = 0
	i.advance()
	if i.preemptNow {
		i.preemptNow = false
		i.runPreempt()
	}
}

// WrapStepper wraps a victim handle with the plan's victim-slowdown
// jitter: occasionally the victim advances extra iterations within one
// attack window, as a loaded or frequency-scaled victim does. With no
// victim jitter in the plan the victim is returned unwrapped.
func (i *Injector) WrapStepper(v Stepper) Stepper {
	if i.plan.VictimJitter.Prob <= 0 {
		return v
	}
	return &jitterStepper{inner: v, i: i}
}

type jitterStepper struct {
	inner Stepper
	i     *Injector
}

func (j *jitterStepper) StepBranches(k int) bool {
	i := j.i
	if i.r.Chance(i.plan.VictimJitter.Prob) {
		k += 1 + int(i.r.Uint64n(uint64(orDefault(i.plan.VictimJitter.Magnitude, defaultVictimExtra))))
		i.ctr.victimSlows.Inc()
	}
	return j.inner.StepBranches(k)
}

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}
