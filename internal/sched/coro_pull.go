//go:build go1.23

package sched

import "iter"

// coro is the transport that passes control between the scheduler and
// one thread. This one is a coroutine: the thread's function runs as an
// iter.Pull iterator, each pause is a yield, and each resume is a call
// to next. A switch stays on the caller's OS thread and never enters the
// Go scheduler, so a hand-off costs a direct stack switch instead of a
// channel round trip and a goroutine wake-up.
//
// The interleaving is the channel transport's (coro_chan.go): the
// thread pauses in the same retire hooks and draws nothing from any
// RNG, so both transports produce the same bytes.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool // set by the body when it first runs
	done  bool
}

// start prepares body to run on the first resume.
func (c *coro) start(body func()) {
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			// A killed thread unwinds with the sentinel; any other
			// panic propagates out of next or stop to the goroutine
			// that resumed or killed the thread.
			if r := recover(); r != nil {
				if _, ok := r.(killed); !ok {
					panic(r)
				}
			}
		}()
		body()
	})
}

// resume runs the thread until it pauses (true) or finishes (false).
// done is set before the switch so that a thread whose body panicked out
// of next reports finished.
func (c *coro) resume() bool {
	c.done = true
	_, ok := c.next()
	c.done = !ok
	return ok
}

// pause suspends the thread until the next resume. Called only from the
// thread's own retire hook. When the scheduler kills the thread instead,
// yield returns false and the thread unwinds with the killed sentinel.
func (c *coro) pause() {
	if !c.yield(struct{}{}) {
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
	c.stop()
	return true
}

// finished reports whether the thread has returned, been killed or
// panicked.
func (c *coro) finished() bool { return c.done }
