// Package uarch defines the calibrated microarchitecture models for the
// three CPUs the paper evaluates: Sandy Bridge (i7-2600), Haswell
// (i7-4800MQ) and Skylake (i5-6200U).
//
// The models differ in the dimensions the paper's experiments expose:
//
//   - PHT size: §6.3 reverse engineers 16384 entries on the Skylake
//     machine. §7 attributes Sandy Bridge's higher covert-channel error
//     rate to its smaller predictor tables, so the Sandy Bridge model
//     gets a 4096-entry PHT (and proportionally smaller tag/selector
//     structures).
//   - Counter FSM: Skylake exhibits the ST/WT-indistinguishable
//     peculiarity (Table 1 footnote); Haswell and Sandy Bridge follow the
//     textbook 2-bit counter.
//   - Learning speed: Figure 2 shows Skylake locking onto an irregular
//     pattern slightly faster than the older i7-2600; in the model this
//     emerges from the Sandy Bridge part's smaller tables (more gshare
//     aliasing while learning) and shorter global history register.
//
// Absolute timing parameters are shared (cpu.DefaultTiming); the paper's
// latency figures do not differentiate microarchitectures.
package uarch

import (
	"fmt"

	"branchscope/internal/bpu"
	"branchscope/internal/cpu"
	"branchscope/internal/fsm"
)

// Model is a named, fully parameterized simulated CPU.
type Model struct {
	// Name is the marketing name used in experiment output ("Skylake").
	Name string
	// Part is the concrete part the paper measured ("i5-6200U").
	Part string
	// BPU is the branch prediction unit configuration.
	BPU bpu.Config
	// Timing is the cycle cost model.
	Timing cpu.Timing
	// NoiseIsolatedBranches and NoiseNoisyBranches are the number of
	// background branch instructions executed by other system activity
	// per attack episode, in the paper's "isolated core" and
	// unrestricted settings respectively (§7). Even an isolated core
	// sees some kernel/interrupt activity.
	NoiseIsolatedBranches int
	NoiseNoisyBranches    int
}

// NewCore instantiates a physical core of this model.
func (m Model) NewCore(seed uint64) *cpu.Core {
	return cpu.NewCore(m.BPU, m.Timing, seed)
}

// Clockless returns the model with a zero Timing, whose cores keep no
// cycle clock (see cpu.NewCore). A machine whose code never reads the
// clock — no rdtscp, no telemetry, no trace.Recorder — is built from it
// and skips the timing model; its predictor, PMCs and results are those
// of the timed model.
func (m Model) Clockless() Model {
	m.Timing = cpu.Timing{}
	return m
}

// String implements fmt.Stringer.
func (m Model) String() string {
	return fmt.Sprintf("%s (%s)", m.Name, m.Part)
}

// Skylake returns the i5-6200U model.
func Skylake() Model {
	return Model{
		Name: "Skylake",
		Part: "i5-6200U",
		BPU: bpu.Config{
			FSM:          fsm.SkylakeAsym(),
			PHTSize:      16384,
			SelectorSize: 4096,
			GHRBits:      16,
			TagEntries:   2048,
			BTBEntries:   4096,
			Mode:         bpu.Hybrid,
			SelectorInit: 3,
		},
		Timing:                cpu.DefaultTiming(),
		NoiseIsolatedBranches: 180,
		NoiseNoisyBranches:    300,
	}
}

// Haswell returns the i7-4800MQ model.
func Haswell() Model {
	return Model{
		Name: "Haswell",
		Part: "i7-4800MQ",
		BPU: bpu.Config{
			FSM:          fsm.Textbook2Bit(),
			PHTSize:      16384,
			SelectorSize: 4096,
			GHRBits:      14,
			TagEntries:   2048,
			BTBEntries:   4096,
			Mode:         bpu.Hybrid,
			SelectorInit: 0,
		},
		Timing:                cpu.DefaultTiming(),
		NoiseIsolatedBranches: 90,
		NoiseNoisyBranches:    250,
	}
}

// SandyBridge returns the i7-2600 model.
func SandyBridge() Model {
	return Model{
		Name: "SandyBridge",
		Part: "i7-2600",
		BPU: bpu.Config{
			FSM:          fsm.Textbook2Bit(),
			PHTSize:      4096,
			SelectorSize: 1024,
			GHRBits:      12,
			TagEntries:   1024,
			BTBEntries:   2048,
			Mode:         bpu.Hybrid,
			SelectorInit: 0,
		},
		Timing:                cpu.DefaultTiming(),
		NoiseIsolatedBranches: 160,
		NoiseNoisyBranches:    360,
	}
}

// All returns the three evaluated models in the paper's table order
// (Skylake, Haswell, Sandy Bridge).
func All() []Model {
	return []Model{Skylake(), Haswell(), SandyBridge()}
}

// ByName returns the model with the given name (case-sensitive) or an
// error listing the valid names.
func ByName(name string) (Model, error) {
	for _, m := range All() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("uarch: unknown model %q (valid: Skylake, Haswell, SandyBridge)", name)
}
