package victims

import "branchscope/internal/cpu"

// ASLR victim (§9.2): address space layout randomization loads the
// victim's code at a secret base, so the attacker does not know where the
// interesting branch lives. BranchScope recovers the location by scanning
// candidate addresses for PHT collisions with the victim's branch — the
// same derandomization idea previously demonstrated with the BTB, which
// §9.2 notes no longer works on recent parts.

// MultiBranchASLRProcess is a victim binary with several known branch
// sites: each loop iteration executes one always-taken branch (a loop
// back-edge) at slide+offset for every offset. The offsets are knowable
// from the binary (the attacker has a copy); the slide is the ASLR
// secret. In a real loader the slide is page-aligned with limited
// entropy; the attacker scans the possible slide values.
func MultiBranchASLRProcess(slide uint64, offsets []uint64) func(*cpu.Context) {
	return func(ctx *cpu.Context) {
		for {
			for _, off := range offsets {
				ctx.Work(3)
				ctx.Branch(slide+off, true)
			}
		}
	}
}
