package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"branchscope"
)

// The service workload drives `experiments -service` through its
// branchscope.job/v1 HTTP API: two tenants, one connection each, in a
// closed loop of submit → stream to EOF, one job running at a time. It
// runs in the traced run only, for its per-layer metrics and checks.
//
// The service runs with GOMAXPROCS=1: it executes one job at a time, and
// a second P only spins idle between network and disk events, at a CPU
// cost that follows the host's wake-up latency. At the default of 2, its
// CPU per job ranged from 34 to 51 ms across ten runs of identical code.

const (
	// specBlock is the balanced unit of a tenant's spec mix: 13 new
	// small jobs, 2 new large jobs and 5 repeats of an earlier spec.
	specBlock    = 20
	smallPerBlk  = 13
	largePerBlk  = 2
	specSalt     = 0x5e41_ce
	svcReadyWait = 30 * time.Second
)

var tenants = []string{"alice", "bob"}

// The two job classes: the small quick job of the service quickstart
// and an occasional larger one that adds the PHT-mapping figure.
var (
	smallJob = []string{"fig2", "table1"}
	largeJob = []string{"fig2", "table1", "fig5"}
)

// jobSpec is the generated part of a branchscope.job/v1 submission.
type jobSpec struct {
	Tenant   string
	BaseSeed uint64
	Tasks    []string
}

func (sp jobSpec) body() []byte {
	b, _ := json.Marshal(map[string]any{ // a map of strings and numbers always encodes
		"schema": "branchscope.job/v1", "tenant": sp.Tenant, "program": "experiments",
		"base_seed": sp.BaseSeed, "quick": true, "tasks": sp.Tasks})
	return b
}

// specSource draws one tenant's specs from the workload seed.
type specSource struct {
	tenant  string
	r       *branchscope.Rand
	block   []int
	history []jobSpec
}

func (s *specSource) next() (sp jobSpec, repeat bool) {
	if len(s.block) == 0 {
		s.block = s.r.Perm(specBlock)
	}
	k := s.block[0]
	s.block = s.block[1:]
	switch {
	case k >= smallPerBlk+largePerBlk && len(s.history) > 0:
		return s.history[s.r.Intn(len(s.history))], true
	case k >= smallPerBlk && k < smallPerBlk+largePerBlk:
		sp = jobSpec{s.tenant, 1 + s.r.Uint64n(1<<32), largeJob}
	default:
		sp = jobSpec{s.tenant, 1 + s.r.Uint64n(1<<32), smallJob}
	}
	s.history = append(s.history, sp)
	return sp, false
}

// jobResult is one job as its tenant's client saw it. Times are Unix
// nanoseconds.
type jobResult struct {
	spec              jobSpec
	repeat            bool
	id, runID         string
	status            int
	post, got201, eof int64
	streamBytes       int
	archiveKB         float64
	err               string // why the job failed, "" when it did not
}

func (j jobResult) latencyMS() float64 { return float64(j.eof-j.post) / 1e6 }

// svcClient is one tenant's connection.
type svcClient struct {
	base string
	hc   *http.Client
	dir  string // the service's -archive directory
	// manifests maps tenant/run-id to the manifest digest the first job
	// of that spec archived, shared by every client of one service.
	manifests *sync.Map
	traced    bool
}

func newClient(base, dir string, manifests *sync.Map, traced bool) *svcClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &svcClient{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}, dir: dir,
		manifests: manifests, traced: traced}
}

func (c *svcClient) close() { c.hc.CloseIdleConnections() }

// do submits one job, streams it to EOF and checks what it produced.
func (c *svcClient) do(sp jobSpec, repeat bool) jobResult {
	res := jobResult{spec: sp, repeat: repeat}
	res.post = time.Now().UnixNano()
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(sp.body()))
	if err != nil {
		res.err = fmt.Sprintf("submit: %v", err)
		return res
	}
	var st struct {
		ID    string `json:"id"`
		RunID string `json:"run_id"`
	}
	res.status = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	res.got201 = time.Now().UnixNano()
	if res.status != http.StatusCreated || err != nil {
		res.err = fmt.Sprintf("submit: HTTP %d (decode: %v)", res.status, err)
		return res
	}
	res.id, res.runID = st.ID, st.RunID

	resp, err = c.hc.Get(c.base + "/jobs/" + st.ID + "/stream")
	if err != nil {
		res.err = fmt.Sprintf("stream: %v", err)
		return res
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.eof = time.Now().UnixNano()
	res.streamBytes = len(body)
	if err != nil || resp.StatusCode != http.StatusOK {
		res.err = fmt.Sprintf("stream: HTTP %d: %v", resp.StatusCode, err)
		return res
	}
	if msg := checkStream(body, sp.Tasks); msg != "" {
		res.err = msg
		return res
	}
	res.err = c.checkArchive(&res)
	return res
}

// checkStream requires one "ok" ledger record per task of the spec.
func checkStream(body []byte, tasks []string) string {
	got := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r ledgerRec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Sprintf("stream record: %v", err)
		}
		got[r.ID] = r.Outcome
	}
	for _, t := range tasks {
		if got[t] != "ok" {
			return fmt.Sprintf("stream: task %s outcome %q, want \"ok\"", t, got[t])
		}
	}
	return ""
}

// checkArchive requires <archive>/<tenant>/<run-id>/manifest.json and,
// for a repeated spec, the same bytes the first job of the spec wrote.
func (c *svcClient) checkArchive(res *jobResult) string {
	dir := filepath.Join(c.dir, res.spec.Tenant, res.runID)
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Sprintf("archive: %v", err)
	}
	sum := sha256.Sum256(b)
	digest := hex.EncodeToString(sum[:])
	if prev, loaded := c.manifests.LoadOrStore(res.spec.Tenant+"/"+res.runID, digest); loaded && prev != digest {
		return fmt.Sprintf("archive: manifest of repeated run %s changed", res.runID)
	}
	if c.traced {
		ents, _ := os.ReadDir(dir) // listed just above; a vanished file only lowers the count
		for _, e := range ents {
			if fi, err := e.Info(); err == nil {
				res.archiveKB += float64(fi.Size()) / 1024
			}
		}
	}
	return ""
}

// svcInstance is one running `experiments -service`.
type svcInstance struct {
	p       *proc
	logs    *logFollower
	base    string
	dir     string
	warmups []jobResult
}

// startService starts a service in dir, waits until /readyz answers
// 200 and runs one warm-up job per input class (table1, fig2).
func startService(c *config, dir, profile string, manifests *sync.Map) (*svcInstance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := []string{"-service", "-serve", "127.0.0.1:0", "-parallel", "1", "-svc-jobs", "1",
		"-archive", filepath.Join(dir, "archive"), "-svc-journal", filepath.Join(dir, "journal"),
		"-log-format", "json"}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	p, err := startProc(c.cli, args, []string{"GOMAXPROCS=1"}, filepath.Join(dir, "stdout.txt"), true)
	if err != nil {
		return nil, err
	}
	s := &svcInstance{p: p, logs: follow(p.stderr), dir: dir}
	select {
	case addr := <-s.logs.addr:
		s.base = "http://" + addr
	case <-s.logs.done:
		p.kill()
		return nil, fmt.Errorf("service exited before listening")
	case <-time.After(svcReadyWait):
		p.kill()
		return nil, fmt.Errorf("service not listening after %v", svcReadyWait)
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(p.started) > svcReadyWait {
			s.stop()
			return nil, fmt.Errorf("service not ready after %v", svcReadyWait)
		}
		time.Sleep(time.Millisecond)
	}
	hc.CloseIdleConnections()
	cl := newClient(s.base, filepath.Join(dir, "archive"), manifests, false)
	defer cl.close()
	r := branchscope.NewRand(c.seed ^ specSalt)
	for _, tasks := range [][]string{smallJob, largeJob} {
		s.warmups = append(s.warmups, cl.do(jobSpec{"warmup", 1 + r.Uint64n(1<<32), tasks}, false))
	}
	return s, nil
}

// stop drains the service with SIGTERM and reaps it.
func (s *svcInstance) stop() (*os.ProcessState, []event, error) {
	if err := s.p.terminate(); err != nil {
		s.p.kill()
		return nil, nil, err
	}
	defer s.p.killAfter(svcReadyWait)()
	events := s.logs.all()
	ps, err := s.p.wait()
	return ps, events, err
}

// load runs both tenants' closed loops for window and returns every
// job in completion order per tenant.
func (s *svcInstance) load(c *config, window time.Duration, manifests *sync.Map, traced bool) []jobResult {
	deadline := time.Now().Add(window)
	results := make([][]jobResult, len(tenants))
	var wg sync.WaitGroup
	for i, t := range tenants {
		src := &specSource{tenant: t, r: branchscope.NewRand(c.seed + uint64(i)*0x9e3779b97f4a7c15)}
		cl := newClient(s.base, filepath.Join(s.dir, "archive"), manifests, traced)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cl.close()
			for time.Now().Before(deadline) {
				results[i] = append(results[i], cl.do(src.next()))
			}
		}(i)
	}
	wg.Wait()
	var all []jobResult
	for _, rs := range results {
		all = append(all, rs...)
	}
	return all
}

// checkJobs counts failed jobs: a client-side failure, or a job the
// service did not settle "done".
func checkJobs(o *outcome, jobs []jobResult, events []event) {
	phases := parseJobEvents(events)
	reported := 0
	for _, j := range jobs {
		o.attempted++
		msg := j.err
		if msg == "" {
			if ph := phases[j.id]; ph == nil || ph.state != "done" {
				msg = fmt.Sprintf("job %s did not settle done", j.id)
			}
		}
		if msg != "" {
			o.failed++
			if reported < 5 {
				o.problem("%s job %v: %s", j.spec.Tenant, j.spec.Tasks, msg)
				reported++
			}
		}
	}
}

// svcRun is a measured service instance after it stopped.
type svcRun struct {
	inst   *svcInstance
	jobs   []jobResult
	events []event
	start  time.Time
	window time.Duration
	cpuMS  float64
	rssMB  float64
}

// measureService starts a service, loads it for window and stops it.
func measureService(c *config, dir, profile string, window time.Duration) (svcRun, error) {
	manifests := &sync.Map{}
	inst, err := startService(c, dir, profile, manifests)
	if err != nil {
		return svcRun{}, err
	}
	run := svcRun{inst: inst, start: time.Now(), window: window}
	run.jobs = inst.load(c, window, manifests, profile != "")
	ps, events, err := inst.stop()
	if err != nil {
		return run, fmt.Errorf("service exit: %w", err)
	}
	run.events, run.cpuMS, run.rssMB = events, cpuMS(ps), rssMB(ps)
	return run, nil
}

// latencyMS is the geometric mean over the two job classes (small,
// large) of each class's median POST → stream EOF latency.
func (r svcRun) latencyMS() (float64, error) {
	byClass := map[int][]float64{}
	for _, j := range r.jobs {
		if j.err == "" { // a failed job has no latency
			byClass[len(j.spec.Tasks)] = append(byClass[len(j.spec.Tasks)], j.latencyMS())
		}
	}
	var classP50 []float64
	for size, xs := range byClass {
		p50, ok := percentile(xs, 0.5)
		if !ok {
			return 0, fmt.Errorf("%d jobs of %d tasks, too few for a median latency", len(xs), size)
		}
		classP50 = append(classP50, p50)
	}
	if len(classP50) != 2 {
		return 0, fmt.Errorf("jobs of %d classes ran, want 2", len(classP50))
	}
	return geomean(classP50), nil
}

// rateSlice is the sub-window over which service throughput is taken.
const rateSlice = 2 * time.Second

// throughput is the median over the window's 2-second slices of the
// completion rate within each slice: completions after the slice's
// first, over the time from its first completion to its last. A burst
// of host contention in part of the window moves it less than a
// whole-window count, and it is not quantised to whole jobs.
func (r svcRun) throughput() float64 {
	n := max(1, int(r.window/rateSlice))
	first := make([]int64, n)
	last := make([]int64, n)
	count := make([]int, n)
	t0 := r.start.UnixNano()
	for _, j := range r.jobs {
		k := int((j.eof - t0) / int64(rateSlice))
		if k < 0 || k >= n {
			continue
		}
		if count[k] == 0 || j.eof < first[k] {
			first[k] = j.eof
		}
		last[k] = max(last[k], j.eof)
		count[k]++
	}
	var rates []float64
	for k := range count {
		if count[k] > 1 && last[k] > first[k] {
			rates = append(rates, float64(count[k]-1)/(float64(last[k]-first[k])/1e9))
		}
	}
	return median(rates)
}
