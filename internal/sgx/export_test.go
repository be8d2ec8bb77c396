package sgx

// StepInstructions resumes the enclave for n instructions, then
// interrupts it (page-fault stepping: the OS unmaps a page to force an
// exit, §9.2).
func (e *Enclave) StepInstructions(n int) bool {
	e.entries.Inc()
	e.instrSteps.Inc()
	alive := e.thread.Step(n)
	e.aex()
	return alive
}
