// Command perfbench is the repository's benchmark. It measures the
// covert and suite workloads, and in a traced run the job service as
// well, through the public surfaces only — the root branchscope package
// and the built experiments CLI with its job API — and prints one JSON
// result line. See README.md for the workloads, the metrics and
// how to run it; run.sh builds everything from source first.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times each workload sets up in one run;
// setup_s is the median.
const setupRepeats = 9

// childTimeout bounds a child's run beyond its measuring window; a
// child still running then is killed and the run fails.
const childTimeout = 120 * time.Second

// endToEndNames are the metrics every untraced run reports, whatever
// its workload, sorted. An item is a message (covert) or a registry
// task (suite); throughput is decoded bits (covert) or tasks (suite)
// per wall-clock second.
var endToEndNames = []string{"cpu_ms_per_item", "peak_rss_mb", "setup_s", "throughput_per_s"}

type config struct {
	seed   uint64
	window time.Duration // measuring window of the time-boxed workloads
	self   string        // this binary, re-executed as the covert child
	cli    string        // the experiments CLI built from the checkout
	work   string        // this run's scratch directory
	state  string        // state kept across runs in one checkout
	source string        // digest of the Go sources under test
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string // failed checks that are not single operations
	metrics           map[string]metric
	notes             map[string]any // sample counts and context for the record line
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, notes: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.problem("metric %s is not a number (%v)", name, v)
		return
	}
	o.metrics[name] = metric{v, unit}
}

func (o *outcome) note(key string, v any) { o.notes[key] = v }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// merge adds another workload's counts, checks and metrics to o.
func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.problems = append(o.problems, p.problems...)
	for k, v := range p.metrics {
		o.metrics[k] = v
	}
	for k, v := range p.notes {
		o.notes[k] = v
	}
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: covert or suite")
	seed := flag.Uint64("seed", 1, "workload seed: generates every input the program receives")
	seconds := flag.Int("seconds", 20, "measuring window of the covert workload and the traced service run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics of every workload")
	cli := flag.String("cli", "", "path of the experiments CLI built from this checkout")
	build := flag.String("build", ".bench_build", "directory for build outputs, run files and state")
	child := flag.String("child", "", "internal: run as the covert sender child")
	window := flag.Duration("window", 0, "internal: the covert child's measuring window")
	warmupOnly := flag.Bool("warmup-only", false, "internal: the covert child exits after warm-up")
	cpuprofile := flag.String("cpuprofile", "", "internal: the covert child's CPU profile")
	flag.Parse()

	if *child == "covert" {
		if err := covertChild(*seed, *window, *warmupOnly, *cpuprofile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench covert child:", err)
			return 1
		}
		return 0
	}
	switch {
	case *workload != "covert" && *workload != "suite":
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (covert or suite)\n", *workload)
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1) || *cli == "" || flag.NArg() > 0:
		flag.Usage()
		return 2
	}
	o, env, err := measure(*workload, *seed, *seconds, *trace == 1, *cli, *build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	record := map[string]any{"workload": *workload, "trace": *trace, "env": env,
		"notes": o.notes, "problems": o.problems, "attempted": o.attempted, "failed": o.failed}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(map[string]any{"perfbench_record": record})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding record:", err)
		return 1
	}
	fmt.Println(string(line))
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && len(o.problems) == 0, o.attempted, o.failed, o.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Println(string(res))
	return 0
}

// measure runs one workload (or, traced, all of them) in a fresh
// scratch directory and returns its outcome and the run's environment.
func measure(workload string, seed uint64, seconds int, traced bool, cli, build string) (*outcome, map[string]any, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	if build, err = filepath.Abs(build); err != nil {
		return nil, nil, err
	}
	c := &config{seed: seed, window: time.Duration(seconds) * time.Second,
		self: self, cli: cli, state: filepath.Join(build, "state"), source: sourceDigest(".")}
	c.work = filepath.Join(build, "runs", fmt.Sprintf("%s-seed%d-trace%v-%d", workload, seed, traced, os.Getpid()))
	for _, d := range []string{c.work, c.state} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, err
		}
	}
	defer os.RemoveAll(c.work)
	env := environment(c)

	var o *outcome
	switch {
	case traced:
		o, err = runTraced(c)
	case workload == "covert":
		o, err = runCovert(c)
	default:
		o, err = runSuite(c)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", workload, err)
	}
	if !traced {
		for _, name := range endToEndNames {
			if _, ok := o.metrics[name]; !ok {
				o.problem("%s did not measure %s", workload, name)
			}
		}
	}
	env["loadavg_end"] = loadavg()
	return o, env, nil
}

// environment records what the figures depend on besides the code.
func environment(c *config) map[string]any {
	fsType := "unknown"
	var st syscall.Statfs_t
	if syscall.Statfs(c.work, &st) == nil {
		fsType = fmt.Sprintf("0x%x", st.Type)
		if st.Type == 0x01021994 { // TMPFS_MAGIC
			fsType = "tmpfs"
		}
	}
	return map[string]any{
		"seed":               c.seed,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"gomaxprocs_env":     os.Getenv("GOMAXPROCS"),
		"service_gomaxprocs": 1,
		"go_version":         runtime.Version(),
		"commit":             commit(),
		"source_sha256":      c.source,
		"workdir":            c.work,
		"workdir_fs":         fsType,
		"loadavg_start":      loadavg(),
	}
}

// loadavg is the 1, 5 and 15 minute load average.
func loadavg() []float64 {
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) != nil {
		return nil
	}
	out := make([]float64, 3)
	for i := range out {
		out[i] = float64(si.Loads[i]) / 65536
	}
	return out
}

// commit is the checked-out commit, or "unknown" outside a git work tree.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest identifies the code under test, also where no commit is
// available: a SHA-256 over the paths and contents of every Go source
// and go.mod file below root, skipping hidden directories.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil // an unreadable entry is left out of the digest
		case d.IsDir() && p != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod"):
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f) // a short read changes the digest, which is the point
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
