package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"branchscope"
)

// The covert workload sends key-sized messages through the public attack
// API, one fresh machine, victim and session per message, exactly as
// examples/quickstart does, with a benchmark-owned noise thread stepped
// from SpyBit's hooks. It runs in a child process of the benchmark so
// that exec-to-ready set-up, peak RSS and package initialisation are
// measured the same way as for the CLI workloads.

const (
	messageBits = 256 // an AES-256 key
	// A round is the balanced unit of the message mix: each of Table 2's
	// six cells (3 models × isolated/noisy) four times, one of the four
	// probing with rdtscp. Rate metrics are medians over whole rounds.
	roundSize = 24
	// minRounds keeps every per-cell median at 20 or more samples even
	// when the host is too slow to fill the window.
	minRounds = 5
	// The noise thread's code region: 4 MiB of branch addresses
	// overlapping nothing the attack uses, like internal/noise.
	noiseBase = 0x7f00_0000_0000
	noiseSpan = 4 << 20
	// warmupSalt separates the warm-up messages' inputs from the timed
	// ones drawn from the same workload seed.
	warmupSalt = 0x5eed_0f_3a3f
)

// berBound is the per-message bit error rate above which a message
// counts as failed, per model. It sits well above the worst message seen
// at healthy seeds (rdtscp probing on a noisy core) and far below the
// 0.5 of a channel that carries nothing.
var berBound = map[string]float64{
	"Skylake":     0.20,
	"Haswell":     0.20,
	"SandyBridge": 0.25,
}

// covertCell is one Table 2 cell: a model and a noise setting.
type covertCell struct {
	Model int // index into branchscope.Models()
	Noisy bool
}

var covertCells = func() []covertCell {
	var cs []covertCell
	for m := range branchscope.Models() {
		cs = append(cs, covertCell{m, false}, covertCell{m, true})
	}
	return cs
}()

// message is one generated input of the covert workload.
type message struct {
	cell      int // index into covertCells
	timing    bool
	secret    []bool
	sysSeed   uint64
	sessSeed  uint64
	noiseSeed uint64
}

func newMessage(cell int, timing bool, r *branchscope.Rand) message {
	return message{cell: cell, timing: timing, secret: r.Bits(messageBits),
		sysSeed: r.Uint64(), sessSeed: r.Uint64(), noiseSeed: r.Uint64()}
}

// planRound draws the next round: every cell four times, the first of
// each four probing with rdtscp, in seed-shuffled order.
func planRound(r *branchscope.Rand) []message {
	order := r.Perm(roundSize)
	msgs := make([]message, roundSize)
	for slot, i := range order {
		cell, k := i/4, i%4
		msgs[slot] = newMessage(cell, k == 0, r)
	}
	return msgs
}

// covertMsg is the child's record of one sent message.
type covertMsg struct {
	Cell      int    `json:"cell"`
	LatencyNS int64  `json:"latency_ns"`
	BootNS    int64  `json:"boot_ns"`
	SearchNS  int64  `json:"search_ns"`
	Bits      int    `json:"bits"`
	Errors    int    `json:"errors"`
	SimCycles uint64 `json:"sim_cycles"`
	SetupErr  string `json:"setup_err,omitempty"`
	// Traced runs only.
	EpisodeNS  int64  `json:"episode_ns,omitempty"` // SpyBit self time
	NoiseNS    int64  `json:"noise_ns,omitempty"`
	VictimNS   int64  `json:"victim_ns,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// attributedNS is the part of a traced message covered by named spans:
// boot, search and the SpyBit calls (which contain the noise and victim
// spans). The spans are sequential and disjoint.
func (m covertMsg) attributedNS() int64 {
	return m.BootNS + m.SearchNS + m.EpisodeNS + m.NoiseNS + m.VictimNS
}

type covertRound struct {
	WallNS int64 `json:"wall_ns"`
	CPUNS  int64 `json:"cpu_ns"`
	Bits   int   `json:"bits"`
	Msgs   int   `json:"msgs"`
}

// covertReport is the child's final stdout line.
type covertReport struct {
	Messages []covertMsg   `json:"messages"`
	Rounds   []covertRound `json:"rounds"`
	WindowNS int64         `json:"window_ns"`
	Ready    bool          `json:"ready,omitempty"`
}

// sender runs messages against the library, optionally tracing them.
type sender struct {
	models []branchscope.Model
	traced bool
	base   time.Time
}

func (s *sender) now() int64 { return int64(time.Since(s.base)) }

// send transmits one message over a fresh machine and session.
func (s *sender) send(m message) covertMsg {
	cell := covertCells[m.cell]
	model := s.models[cell.Model]
	rec := covertMsg{Cell: m.cell}
	var ms0 runtime.MemStats
	if s.traced {
		runtime.ReadMemStats(&ms0)
	}
	t0 := s.now()

	sys := branchscope.NewSystem(model, m.sysSeed)
	victim := sys.Spawn("victim", branchscope.LoopingSecretArraySender(m.secret, 0))
	defer victim.Kill()
	noise := sys.Spawn("noise", noiseProcess(m.noiseSeed))
	defer noise.Kill()
	spy := sys.NewProcess("spy")
	t1 := s.now()
	sess, err := branchscope.NewSession(spy, branchscope.NewRand(m.sessSeed), branchscope.AttackConfig{
		Search:    branchscope.SearchConfig{TargetAddr: branchscope.SecretBranchAddr, Focused: true},
		UseTiming: m.timing,
	})
	t2 := s.now()
	rec.BootNS, rec.SearchNS = t1-t0, t2-t1
	if err != nil {
		rec.SetupErr = err.Error()
		rec.LatencyNS = s.now() - t0
		return rec
	}
	budget := model.NoiseIsolatedBranches
	if cell.Noisy {
		budget = model.NoiseNoisyBranches
	}
	clk0 := sys.Core().Clock()
	if s.traced {
		rec.Errors = s.tracedBits(&rec, sess, m.secret, victim, noise, budget)
	} else {
		before := func() { noise.Step(budget / 2) }
		after := func() { noise.Step(budget - budget/2) }
		for _, bit := range m.secret {
			if sess.SpyBit(victim, before, after) != bit {
				rec.Errors++
			}
		}
	}
	rec.SimCycles = sys.Core().Clock() - clk0
	rec.Bits = len(m.secret)
	rec.LatencyNS = s.now() - t0
	if s.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		rec.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	}
	return rec
}

// tracedBits is the bit loop with a span around every SpyBit and around
// each noise hook and victim step inside it.
func (s *sender) tracedBits(rec *covertMsg, sess *branchscope.Session, secret []bool,
	victim, noise *branchscope.Thread, budget int) int {
	var kids [3]interval
	var n int
	timed := func(f func()) func() {
		return func() {
			a := s.now()
			f()
			kids[n] = interval{a, s.now()}
			n++
		}
	}
	before := timed(func() { noise.Step(budget / 2) })
	after := timed(func() { noise.Step(budget - budget/2) })
	tv := &timedStepper{inner: victim, s: s, kids: &kids, n: &n}
	errs := 0
	for _, bit := range secret {
		n = 0
		a := s.now()
		got := sess.SpyBit(tv, before, after)
		bitSpan := interval{a, s.now()}
		if got != bit {
			errs++
		}
		rec.NoiseNS += kids[0].dur() + kids[2].dur()
		rec.VictimNS += kids[1].dur()
		rec.EpisodeNS += selfTime(bitSpan, kids[:n])
	}
	return errs
}

// timedStepper wraps the victim so its single-branch step is a span.
type timedStepper struct {
	inner branchscope.Stepper
	s     *sender
	kids  *[3]interval
	n     *int
}

func (t *timedStepper) StepBranches(k int) bool {
	a := t.s.now()
	ok := t.inner.StepBranches(k)
	t.kids[*t.n] = interval{a, t.s.now()}
	*t.n++
	return ok
}

// noiseProcess is the background activity of the paper's settings:
// random-direction branches over noiseSpan, one instruction in eight a
// non-branch.
func noiseProcess(seed uint64) func(*branchscope.Context) {
	return func(ctx *branchscope.Context) {
		r := branchscope.NewRand(seed)
		for {
			addr := noiseBase + r.Uint64n(noiseSpan)
			if r.Intn(8) == 0 {
				ctx.Nop(addr)
				continue
			}
			ctx.Branch(addr, r.Bool())
		}
	}
}

// cpuNS is this process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// covertChild is the child process: warm up one message per input
// class, announce readiness, then send whole rounds until the window
// closes. Each stdout line is one JSON covertReport.
func covertChild(seed uint64, window time.Duration, warmupOnly bool, profile string) error {
	out := json.NewEncoder(os.Stdout)
	s := &sender{models: branchscope.Models(), base: time.Now()}
	wr := branchscope.NewRand(seed ^ warmupSalt)
	for cell := range covertCells {
		for _, timing := range []bool{false, true} {
			s.send(newMessage(cell, timing, wr))
		}
	}
	if err := out.Encode(covertReport{Ready: true}); err != nil {
		return err
	}
	if warmupOnly {
		return nil
	}
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		s.traced = true
	}
	var rep covertReport
	r := branchscope.NewRand(seed)
	start := time.Now()
	for len(rep.Rounds) < minRounds || time.Since(start) < window {
		plan := planRound(r)
		t0, c0 := time.Now(), cpuNS()
		round := covertRound{Msgs: len(plan)}
		for _, m := range plan {
			rec := s.send(m)
			rep.Messages = append(rep.Messages, rec)
			round.Bits += rec.Bits
		}
		round.WallNS, round.CPUNS = int64(time.Since(t0)), cpuNS()-c0
		rep.Rounds = append(rep.Rounds, round)
	}
	rep.WindowNS = int64(time.Since(start))
	if profile != "" {
		pprof.StopCPUProfile()
	}
	return out.Encode(rep)
}

// covertRun is one covert child's outcome as the parent sees it.
type covertRun struct {
	setupS []float64 // exec → ready, one per child started
	report covertReport
	rssMB  float64
}

// runCovertChildren starts setups children in turn, all but the last
// stopping after warm-up, and returns the last one's report.
func runCovertChildren(c *config, seed uint64, window time.Duration, setups int, profile string) (covertRun, error) {
	var run covertRun
	for k := 0; k < setups; k++ {
		last := k == setups-1
		args := []string{"-child", "covert", "-seed", fmt.Sprint(seed), "-window", window.String()}
		if !last {
			args = append(args, "-warmup-only")
		} else if profile != "" {
			args = append(args, "-cpuprofile", profile)
		}
		p, err := startProc(c.self, args, nil, "", false)
		if err != nil {
			return run, err
		}
		cancel := p.killAfter(window + childTimeout)
		sc := bufio.NewScanner(p.stdout)
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		var reports []covertReport
		for sc.Scan() {
			var rep covertReport
			if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
				p.kill()
				return run, fmt.Errorf("covert child output: %w", err)
			}
			if rep.Ready {
				run.setupS = append(run.setupS, time.Since(p.started).Seconds())
			}
			reports = append(reports, rep)
		}
		ps, err := p.wait()
		cancel()
		if err != nil {
			return run, fmt.Errorf("covert child: %w", err)
		}
		if len(reports) == 0 || !reports[0].Ready {
			return run, fmt.Errorf("covert child exited without announcing readiness")
		}
		if last {
			if len(reports) != 2 {
				return run, fmt.Errorf("covert child printed %d reports, want 2", len(reports))
			}
			run.report = reports[1]
			run.rssMB = rssMB(ps)
		}
	}
	return run, nil
}

// covertFailures counts failed messages: a session that could not be
// set up, or a bit error rate above the model's bound.
func covertFailures(msgs []covertMsg) int {
	models := branchscope.Models()
	failed := 0
	for _, m := range msgs {
		name := models[covertCells[m.Cell].Model].Name
		if m.SetupErr != "" || m.Bits == 0 || float64(m.Errors)/float64(m.Bits) > berBound[name] {
			failed++
		}
	}
	return failed
}

// runCovert is the untraced covert workload.
func runCovert(c *config) (*outcome, error) {
	run, err := runCovertChildren(c, c.seed, c.window, setupRepeats, "")
	if err != nil {
		return nil, err
	}
	rep := run.report
	o := newOutcome()
	o.attempted = len(rep.Messages)
	o.failed = covertFailures(rep.Messages)
	var cpuPerMsg []float64
	for _, r := range rep.Rounds {
		cpuPerMsg = append(cpuPerMsg, float64(r.CPUNS)/1e6/float64(r.Msgs))
	}
	latency, rate, err := covertWall(rep)
	if err != nil {
		return nil, err
	}
	o.set("setup_s", median(run.setupS), "s")
	o.set("cpu_ms_per_item", median(cpuPerMsg), "ms")
	o.set("peak_rss_mb", run.rssMB, "MB")
	o.set("throughput_per_s", rate, "1/s")
	o.note("covert.latency_ms_p50", latency)
	o.note("covert.messages", len(rep.Messages))
	o.note("covert.rounds", len(rep.Rounds))
	return o, nil
}

// covertWall is a covert run's wall-clock figures: the geometric mean
// over cells of each cell's median message latency (the cells' costs
// differ 5×, so a pooled median would sit on a boundary between two of
// them), and decoded bits per second, the median over rounds.
func covertWall(rep covertReport) (latencyMS, bitsPerS float64, err error) {
	perCell := make([][]float64, len(covertCells))
	for _, m := range rep.Messages {
		perCell[m.Cell] = append(perCell[m.Cell], float64(m.LatencyNS)/1e6)
	}
	var cellP50 []float64
	for i, xs := range perCell {
		p50, ok := percentile(xs, 0.5)
		if !ok {
			return 0, 0, fmt.Errorf("covert cell %d has %d messages, too few for a median", i, len(xs))
		}
		cellP50 = append(cellP50, p50)
	}
	var rates []float64
	for _, r := range rep.Rounds {
		rates = append(rates, float64(r.Bits)/(float64(r.WallNS)/1e9))
	}
	return geomean(cellP50), median(rates), nil
}
