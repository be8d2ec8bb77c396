package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"branchscope"
)

// The suite workload is one sequential quick pass of the experiments
// CLI with every durable sink on, the command that regenerates the
// paper's artifacts at test scale. Its unit of work is the whole pass,
// which on a 2-core VM takes about as long as the other workloads'
// measuring window.
//
// The pass always runs at the CLI's default -seed, the one
// `experiments -quick` regenerates: the jpeg experiment's block search
// costs 3 s at some seeds and 14 s at others, so a seed drawn from the
// workload seed would swing the pass's wall time by a factor of two
// between runs.
const suiteSeed = 1

// ledgerRec is the part of a branchscope.ledger/v1 record the benchmark
// reads, from the CLI's -ledger-out file or a job stream.
type ledgerRec struct {
	ID          string  `json:"id"`
	Outcome     string  `json:"outcome"`
	WallSeconds float64 `json:"wall_seconds"`
}

// suitePass is one experiments CLI run as the benchmark observed it.
type suitePass struct {
	setupS    float64 // exec → first "task start" event
	wallS     float64 // exec → exit
	cpuMS     float64
	rssMB     float64
	exitErr   error
	ledger    []ledgerRec
	exportSHA string
	started   time.Time
	events    []event
}

// runSuitePass runs the CLI in dir over tasks (nil = the whole
// registry), writing a CPU profile when profile is non-empty.
func runSuitePass(c *config, dir string, seed uint64, tasks []string, profile string) (suitePass, error) {
	var pass suitePass
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return pass, err
	}
	args := []string{"-quick", "-parallel", "1", "-seed", fmt.Sprint(seed), "-log-format", "json",
		"-checkpoint", filepath.Join(dir, "campaign.journal"),
		"-archive", filepath.Join(dir, "archive"),
		"-json", filepath.Join(dir, "export.json"),
		"-ledger-out", filepath.Join(dir, "ledger.jsonl")}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	p, err := startProc(c.cli, append(args, tasks...), nil, filepath.Join(dir, "report.txt"), true)
	if err != nil {
		return pass, err
	}
	defer p.killAfter(childTimeout)()
	logs := follow(p.stderr)
	pass.events = logs.all()
	ps, err := p.wait()
	pass.wallS = time.Since(p.started).Seconds()
	pass.started = p.started
	pass.exitErr = err
	if ps == nil {
		return pass, err
	}
	pass.cpuMS, pass.rssMB = cpuMS(ps), rssMB(ps)
	if t, ok := logs.firstEvent("task start"); ok {
		pass.setupS = t.Sub(p.started).Seconds()
	}
	if pass.ledger, err = readLedger(filepath.Join(dir, "ledger.jsonl")); err != nil && pass.exitErr == nil {
		pass.exitErr = err
	}
	if b, err := os.ReadFile(filepath.Join(dir, "export.json")); err == nil {
		sum := sha256.Sum256(b)
		pass.exportSHA = hex.EncodeToString(sum[:])
	}
	return pass, nil
}

func readLedger(path string) ([]ledgerRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []ledgerRec
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r ledgerRec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("ledger %s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// registryIDs is the experiment registry, in order.
func registryIDs() []string {
	var ids []string
	for _, e := range branchscope.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// checkSuitePass counts the pass's failed tasks and records any other
// failed check on o: the CLI must exit 0, and the ledger must hold one
// "ok" record per registry experiment.
func checkSuitePass(o *outcome, pass suitePass, want []string) {
	o.attempted += len(want)
	if pass.exitErr != nil {
		o.problem("experiments CLI: %v", pass.exitErr)
	}
	got := map[string]string{}
	for _, r := range pass.ledger {
		got[r.ID] = r.Outcome
	}
	for _, id := range want {
		if got[id] != "ok" {
			o.failed++
			o.problem("task %s: ledger outcome %q, want \"ok\"", id, got[id])
		}
	}
	if len(pass.ledger) != len(want) {
		o.problem("ledger has %d records, want %d", len(pass.ledger), len(want))
	}
	if pass.exportSHA == "" {
		o.problem("no -json export written")
	}
}

// checkExportDigest compares the pass's -json export (wall-zeroed under
// -checkpoint) with the digest an earlier run of the same seed over the
// same sources stored, storing it when none exists. Keying by the
// source digest compares only runs of identical code: another version
// may legitimately export other results.
func checkExportDigest(o *outcome, c *config, seed uint64, sha string) {
	if sha == "" {
		return
	}
	path := filepath.Join(c.state, fmt.Sprintf("suite-export-seed%d-%s.sha256", seed, c.source))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil && strings.TrimSpace(string(prev)) != sha:
		o.problem("-json export of seed %d differs from an earlier run of the same sources (%s vs %s)",
			seed, sha, strings.TrimSpace(string(prev)))
	case err != nil:
		if err := os.WriteFile(path, []byte(sha+"\n"), 0o644); err != nil {
			o.problem("storing export digest: %v", err)
		}
	}
	o.note("suite.export_sha256", sha)
}

// runSuite is the untraced suite workload: two short invocations to
// sample set-up, then the measured pass.
func runSuite(c *config) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	for k := 0; k < setupRepeats-1; k++ {
		pass, err := runSuitePass(c, filepath.Join(c.work, fmt.Sprintf("setup%d", k)), c.seed, []string{"table1"}, "")
		if err != nil {
			return nil, err
		}
		if pass.exitErr != nil || pass.setupS == 0 {
			o.problem("set-up invocation %d: exit %v, no task started", k, pass.exitErr)
		}
		setups = append(setups, pass.setupS)
	}
	pass, err := runSuitePass(c, filepath.Join(c.work, "pass"), suiteSeed, nil, "")
	if err != nil {
		return nil, err
	}
	ids := registryIDs()
	checkSuitePass(o, pass, ids)
	checkExportDigest(o, c, suiteSeed, pass.exportSHA)
	setups = append(setups, pass.setupS)

	o.set("setup_s", median(setups), "s")
	o.set("cpu_ms_per_item", pass.cpuMS/float64(len(ids)), "ms")
	o.set("peak_rss_mb", pass.rssMB, "MB")
	o.set("throughput_per_s", float64(len(ids))/pass.wallS, "1/s")
	o.note("suite.wall_s", pass.wallS)
	o.note("suite.cpu_s", pass.cpuMS/1000)
	return o, nil
}

// suiteSpans are the traced pass's named spans on the Unix-nanosecond
// clock: set-up (exec → first task start), every task (task start →
// task done) and the final flush (last task done → run archived).
func suiteSpans(pass suitePass) []span {
	var spans []span
	starts := map[string]time.Time{}
	var first, lastDone, archived time.Time
	for _, ev := range pass.events {
		switch ev.Msg {
		case "task start":
			starts[ev.ID] = ev.Time
			if first.IsZero() {
				first = ev.Time
			}
		case "task done":
			if s, ok := starts[ev.ID]; ok {
				spans = append(spans, span{name: "experiments." + ev.ID,
					interval: interval{s.UnixNano(), ev.Time.UnixNano()}})
			}
			lastDone = ev.Time
		case "run archived":
			archived = ev.Time
		}
	}
	if !first.IsZero() {
		spans = append(spans, span{name: "cliutil.setup", interval: interval{pass.started.UnixNano(), first.UnixNano()}})
	}
	if !lastDone.IsZero() && !archived.IsZero() {
		spans = append(spans, span{name: "runstore.flush", interval: interval{lastDone.UnixNano(), archived.UnixNano()}})
	}
	return spans
}
