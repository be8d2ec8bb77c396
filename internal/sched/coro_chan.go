//go:build !go1.23

package sched

// coro is the transport that passes control between the scheduler and
// one thread. This one is a channel hand-off: the thread's function
// runs on its own goroutine, and every resume and pause is an unbuffered
// channel operation. It is the transport a Go 1.22 toolchain builds; Go
// 1.23 and later build the coroutine transport in coro_pull.go, which
// keeps the same interleaving and so produces the same bytes.
type coro struct {
	run     chan bool     // scheduler → thread: true resumes, false kills
	parked  chan struct{} // thread → scheduler: paused; closed when finished
	done    bool          // scheduler side: the thread has finished
	fault   any           // thread side: a panic other than killed, re-raised by the scheduler
	stopped bool          // thread side: unwinding after a kill
}

// start launches body's goroutine, blocked until the first resume.
func (c *coro) start(body func()) {
	c.run = make(chan bool)
	c.parked = make(chan struct{})
	go func() {
		defer close(c.parked)
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killed); !ok {
					c.fault = r
				}
			}
		}()
		if <-c.run {
			body()
		}
	}()
}

// resume runs the thread until it pauses (true) or finishes (false). A
// panic in the thread's function is re-raised here, on the goroutine
// that resumed it.
func (c *coro) resume() bool {
	if c.done {
		return false
	}
	c.done = true
	c.run <- true
	if _, paused := <-c.parked; paused {
		c.done = false
		return true
	}
	c.raise()
	return false
}

// pause suspends the thread until the next resume. Called only from the
// thread's own retire hook. When the scheduler kills the thread instead,
// the thread unwinds with the killed sentinel; an instruction retired by
// a deferred call during that unwinding unwinds again at once.
func (c *coro) pause() {
	if c.stopped {
		panic(killed{})
	}
	c.parked <- struct{}{}
	if !<-c.run {
		c.stopped = true
		panic(killed{})
	}
}

// kill unwinds a suspended or never-started thread and reports whether
// there was one to unwind (false when it had already finished).
func (c *coro) kill() bool {
	if c.done {
		return false
	}
	c.done = true
	c.run <- false
	<-c.parked
	c.raise()
	return true
}

// raise re-raises a panic the finished thread's function left behind.
func (c *coro) raise() {
	if c.fault != nil {
		panic(c.fault)
	}
}

// finished reports whether the thread has returned, been killed or
// panicked.
func (c *coro) finished() bool { return c.done }
