package main

import (
	"fmt"
	"os/exec"
	"regexp"
	"strings"
	"time"
)

// profileModules are the layers a CPU profile is split into. Each
// traced workload reports every module's share of its flat samples, so
// a change to one module shows where that module dominates and stays
// flat where its share is ~0.
var profileModules = []string{
	"fsm", "pht", "bpu", "cpu", "rng", "sched", "core", "attacks", "victims",
	"experiments", "engine", "campaign", "runstore", "obs", "svc", "cliutil",
	"net_http", "encoding_json", "syscall", "runtime_sched", "gc",
}

// runtimeSched and runtimeGC classify runtime functions by name prefix:
// goroutine scheduling and hand-off (parking, waking, futexes, channel
// operations), and allocation plus garbage collection.
var (
	runtimeSched = []string{
		"futex", "schedule", "findRunnable", "park_m", "gopark", "goready", "ready",
		"runqget", "runqgrab", "runqsteal", "runqput", "stealWork", "notesleep", "notewakeup",
		"mcall", "gogo", "usleep", "osyield", "netpoll", "wakep", "startm", "stopm",
		"handoffp", "lock2", "unlock2", "chanrecv", "chansend", "selectgo", "send", "recv",
		"casgstatus", "execute", "resetspinning", "checkTimers", "gosched", "goschedImpl",
		"mPark", "semasleep", "semawakeup", "semacquire", "semrelease", "acquirep",
		"releasep", "injectglist", "procyield", "sysmon", "retake", "epollwait",
		"(*timers)", "(*waitq)", "acquireSudog", "releaseSudog", "parkunlock", "chanparkcommit",
		"mstart", "newproc", "goexit",
	}
	runtimeGC = []string{
		"gc", "mark", "scan", "greyobject", "findObject", "sweepone", "bgsweep", "bgscavenge",
		"(*gcWork)", "(*gcControllerState)", "(*gcBits)", "(*mspan)", "(*sweepLocked)",
		"(*scavengerState)", "(*pageAlloc)", "wbBuf", "bulkBarrier", "typePointers",
		"mallocgc", "malloc", "newobject", "makeslice", "growslice", "nextFreeFast",
		"(*mcache)", "(*mcentral)", "(*mheap)", "heapBits", "spanOf",
	}
)

// pkgOf is the import path of a profiled function's package.
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i] // receivers and type arguments may hold other paths
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(head[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	return head[:slash+1+dot]
}

// moduleOf maps a profiled function to its module, or "" for code
// outside every module (the benchmark itself, other packages, the rest
// of the runtime).
func moduleOf(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case strings.HasPrefix(fn, "gcWriteBarrier"): // assembly, no package prefix
		return "gc"
	case pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "syscall"
	case strings.HasPrefix(pkg, "branchscope/internal/"):
		name := strings.TrimPrefix(pkg, "branchscope/internal/")
		for _, mod := range profileModules {
			if mod == name {
				return mod
			}
		}
	case pkg == "net/http" || pkg == "encoding/json":
		return strings.ReplaceAll(pkg, "/", "_")
	case pkg == "runtime":
		rest := strings.TrimPrefix(fn, "runtime.")
		for _, p := range runtimeSched {
			if strings.HasPrefix(rest, p) {
				return "runtime_sched"
			}
		}
		for _, p := range runtimeGC {
			if strings.HasPrefix(rest, p) {
				return "gc"
			}
		}
	}
	return ""
}

var topTotal = regexp.MustCompile(`of ([0-9.]+[a-zµ]+) total`)

// moduleShares aggregates `go tool pprof -top` output into each
// module's share of the profile's total flat samples. Every module of
// profileModules is present, 0 when absent from the profile.
func moduleShares(top string) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, m := range profileModules {
		shares[m] = 0
	}
	tm := topTotal.FindStringSubmatch(top)
	if tm == nil {
		return nil, fmt.Errorf("pprof -top output has no total")
	}
	total, err := parseDur(tm[1])
	if err != nil || total <= 0 {
		return nil, fmt.Errorf("pprof total %q: %v", tm[1], err)
	}
	inRows := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			inRows = true
			continue
		}
		if !inRows || len(f) < 6 {
			continue
		}
		flat, err := parseDur(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		if mod := moduleOf(fn); mod != "" {
			shares[mod] += float64(flat) / float64(total)
		}
	}
	if !inRows {
		return nil, fmt.Errorf("pprof -top output has no rows")
	}
	return shares, nil
}

// parseDur reads a pprof duration column ("1.20s", "10ms", "0").
func parseDur(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	return time.ParseDuration(s)
}

// profileShares runs `go tool pprof -top` on a CPU profile.
func profileShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	return moduleShares(string(out))
}

// setShares reports a profile's module shares as prefix.pprof.<m>_share.
func setShares(o *outcome, prefix, profile string) error {
	shares, err := profileShares(profile)
	if err != nil {
		return err
	}
	for _, m := range profileModules {
		o.set(fmt.Sprintf("%s.pprof.%s_share", prefix, m), shares[m], "ratio")
	}
	return nil
}
