package engine

import (
	"errors"
	"sort"
	"sync"
)

// ErrBreakerOpen is the sentinel carried by reports whose task was
// skipped because its family's circuit breaker was open. It classifies
// as a permanent failure (never retried): re-running the task would hit
// the same open breaker.
var ErrBreakerOpen = errors.New("circuit breaker open")

// BreakerStatus is one family's breaker state for /statusz and logs.
type BreakerStatus struct {
	Family string `json:"family"`
	State  string `json:"state"` // closed | open
	// ConsecutiveFailures is the current run of permanent failures
	// (reset to zero by any success).
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Skipped counts tasks short-circuited while the breaker was open.
	Skipped int `json:"skipped"`
}

// BreakerSet is a per-family circuit breaker over task outcomes: after
// Threshold consecutive permanent failures ("error" or "panic" — not
// timeouts, cancellations or exhausted retries, which say nothing about
// the family's code being broken) in one family, the family's breaker
// opens and its remaining tasks are skipped with the
// "skipped-open-breaker" outcome instead of burning wall time on a
// substrate that is demonstrably broken. A success closes the failure
// run; an open breaker stays open for the rest of the suite (campaigns
// are one-shot — a resumed run starts with fresh breakers).
//
// All methods are safe for concurrent use and no-ops on a nil set.
// Note that "consecutive" is observed in completion order, which under
// parallel execution depends on scheduling: circuit breaking trades
// determinism for liveness on failing suites only — a healthy suite
// never observes a failure, so the byte-identical-output contract is
// unaffected.
type BreakerSet struct {
	threshold int

	mu   sync.Mutex
	fams map[string]*breakerState
}

type breakerState struct {
	consecutive int
	skipped     int
	open        bool
}

// NewBreakerSet returns a set opening after threshold consecutive
// permanent failures per family, or nil (circuit breaking disabled)
// when threshold < 1.
func NewBreakerSet(threshold int) *BreakerSet {
	if threshold < 1 {
		return nil
	}
	return &BreakerSet{threshold: threshold, fams: make(map[string]*breakerState)}
}

// Admit reports whether a task of the family may run, counting a
// skipped task when it may not. A nil set admits everything.
func (b *BreakerSet) Admit(family string) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.fams[family]
	if st == nil || !st.open {
		return true
	}
	st.skipped++
	return false
}

// Observe feeds one finished task's outcome into the family's breaker.
func (b *BreakerSet) Observe(family, outcome string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch outcome {
	case "ok", "retried-ok":
		if st := b.fams[family]; st != nil {
			st.consecutive = 0
		}
	case "error", "panic":
		st := b.fams[family]
		if st == nil {
			st = &breakerState{}
			b.fams[family] = st
		}
		st.consecutive++
		if st.consecutive >= b.threshold {
			st.open = true
		}
	}
}

// AnyOpen reports whether any family's breaker is open — the /readyz
// degradation signal.
func (b *BreakerSet) AnyOpen() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, st := range b.fams {
		if st.open {
			return true
		}
	}
	return false
}

// Status returns the state of every family that has recorded at least
// one permanent failure, sorted by family name. Healthy families are
// omitted: an empty slice means no breaker has anything to report.
func (b *BreakerSet) Status() []BreakerStatus {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BreakerStatus, 0, len(b.fams))
	for fam, st := range b.fams {
		s := BreakerStatus{Family: fam, State: "closed",
			ConsecutiveFailures: st.consecutive, Skipped: st.skipped}
		if st.open {
			s.State = "open"
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Family < out[j].Family })
	return out
}
