package sched

// Run lets the thread execute to completion in one unlimited quantum.
func (t *Thread) Run() {
	for t.step(grant{instr: -1, branches: -1}) {
	}
}
