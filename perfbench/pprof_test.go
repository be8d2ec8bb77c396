package main

import (
	"math"
	"testing"
)

// cannedTop is `go tool pprof -top` output of an experiments -service
// profile, trimmed.
const cannedTop = `File: experiments
Build ID: d0bce35c136d41fa0a524f6aafb0f74fc3cd40e1
Type: cpu
Time: 2026-10-17 01:23:03 UTC
Duration: 8.99s, Total samples = 10s (111.2%)
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
     1.50s 15.00% 15.00%      1.50s 15.00%  internal/runtime/syscall.Syscall6
        1s 10.00% 25.00%         1s 10.00%  branchscope/internal/pht.(*Table).Reset
     0.50s  5.00% 30.00%      1.20s 12.00%  runtime.scanobject
     500ms  5.00% 35.00%      500ms  5.00%  runtime.futex
     0.40s  4.00% 39.00%      0.40s  4.00%  branchscope/internal/bpu.(*Unit).PredictSiteInto (inline)
     0.30s  3.00% 42.00%      0.30s  3.00%  encoding/json.appendCompact
     0.20s  2.00% 44.00%      0.20s  2.00%  net/http.(*conn).serve
     0.20s  2.00% 46.00%      0.20s  2.00%  gcWriteBarrier
     0.10s  1.00% 47.00%      0.10s  1.00%  runtime.mallocgcSmallNoscan
     0.10s  1.00% 48.00%      0.10s  1.00%  sync/atomic.(*Pointer[branchscope/internal/chaos.Plan]).Load
     0.10s  1.00% 49.00%      0.10s  1.00%  branchscope/internal/svc.(*Service).run.func1
     0.10s  1.00% 50.00%      0.10s  1.00%  branchscope/internal/leakage.(*Estimator).Observe
      10ms   0.1% 50.10%       10ms   0.1%  runtime.memmove
         0     0% 50.10%      2.00s 20.00%  main.main
`

func TestPprofTopAggregatesIntoModuleShares(t *testing.T) {
	shares, err := moduleShares(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"syscall":       0.15,
		"pht":           0.10,
		"gc":            0.08, // scanobject + gcWriteBarrier + mallocgc
		"runtime_sched": 0.05,
		"bpu":           0.04,
		"encoding_json": 0.03,
		"net_http":      0.02,
		"svc":           0.01,
	}
	for _, m := range profileModules {
		if got, ok := shares[m]; !ok || math.Abs(got-want[m]) > 1e-9 {
			t.Errorf("%s share = %v (present %v), want %v", m, got, ok, want[m])
		}
	}
	if len(shares) != len(profileModules) {
		t.Errorf("%d shares, want one per module (%d)", len(shares), len(profileModules))
	}
}

func TestPprofTopWithoutRowsIsAnError(t *testing.T) {
	if _, err := moduleShares("File: x\nType: cpu\n"); err == nil {
		t.Error("output without a total parsed")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"branchscope/internal/core.(*Session).SpyBit": "core",
		"branchscope/internal/fsm.Spec.Next":          "fsm",
		"branchscope/internal/noise.Process.func1":    "", // not a listed module
		"branchscope.NewSystem":                       "",
		"main.noiseProcess.func1":                     "",
		"runtime.findRunnable":                        "runtime_sched",
		"runtime.gcDrain":                             "gc",
		"runtime.memclrNoHeapPointers":                "",
		"syscall.Syscall":                             "syscall",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
