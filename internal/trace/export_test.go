package trace

// Detach stops recording and restores the hook chain that was installed
// before Attach. Recorders must detach in LIFO order (the most recently
// attached first): detaching out of order would splice away recorders
// attached later, whose closures still reference this one — those keep
// working because a stale closure left on the context forwards to the
// restored chain without recording. Detach is idempotent; the recorder's
// ring and summary remain readable afterwards.
func (r *Recorder) Detach() {
	if r.detached {
		return
	}
	r.detached = true
	r.ctx.SetHook(r.prev)
}
