package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"branchscope"
)

// The traced run reports the per-layer metrics of all three workloads,
// whichever -workload names the run, so that one traced invocation
// yields the whole per-layer table. Each workload runs once untraced
// and once traced with the same seed: the pair gives trace_overhead and
// the checks that tracing changes no simulated result. Inner layers are
// attributed from CPU-profile package shares, spans come from the
// benchmark's own calls into the library and from the CLI's log events.

func runTraced(c *config) (*outcome, error) {
	o := newOutcome()
	for _, f := range []func(*config) (*outcome, error){traceCovert, traceSuite, traceService} {
		p, err := f(c)
		if err != nil {
			return nil, err
		}
		o.merge(p)
	}
	for _, name := range traceMetricNames() {
		if _, ok := o.metrics[name]; !ok {
			o.problem("traced run did not measure %s", name)
		}
	}
	return o, nil
}

// traceCovert runs a covert child untraced and one traced for half the
// window each.
func traceCovert(c *config) (*outcome, error) {
	o := newOutcome()
	half := c.window / 2
	base, err := runCovertChildren(c, c.seed, half, 1, "")
	if err != nil {
		return nil, err
	}
	profile := filepath.Join(c.work, "covert.pprof")
	tr, err := runCovertChildren(c, c.seed, half, 1, profile)
	if err != nil {
		return nil, err
	}
	msgs := tr.report.Messages
	o.attempted = len(base.report.Messages) + len(msgs)
	o.failed = covertFailures(base.report.Messages) + covertFailures(msgs)

	// Tracing must not change what is simulated: message i is the same
	// input in both runs, so its errors and cycles must match exactly.
	common := min(len(msgs), len(base.report.Messages))
	for i := 0; i < common; i++ {
		a, b := base.report.Messages[i], msgs[i]
		if a.Errors != b.Errors || a.SimCycles != b.SimCycles {
			o.problem("covert message %d: traced run decoded %d errors in %d cycles, untraced %d in %d",
				i, b.Errors, b.SimCycles, a.Errors, a.SimCycles)
			break
		}
	}
	// Simulated figures over the first round, which every run of a seed
	// completes, so they repeat exactly.
	var errs, bits int
	var cycles uint64
	for _, m := range msgs[:roundSize] {
		errs, bits, cycles = errs+m.Errors, bits+m.Bits, cycles+m.SimCycles
	}

	var boot, search []float64
	var episode, noise, victim, attributed int64
	var alloc uint64
	var tracedBits int
	for _, m := range msgs {
		boot = append(boot, float64(m.BootNS)/1e6)
		search = append(search, float64(m.SearchNS)/1e6)
		episode, noise, victim = episode+m.EpisodeNS, noise+m.NoiseNS, victim+m.VictimNS
		attributed += m.attributedNS()
		alloc += m.AllocBytes
		tracedBits += m.Bits
	}
	o.set("covert.sched.boot_ms", median(boot), "ms")
	setPercentiles(o, "covert.core.search_ms", search, "ms", 0.5, 0.9)
	perBit := func(ns int64) float64 { return float64(ns) / 1e3 / float64(tracedBits) }
	o.set("covert.core.episode_us", perBit(episode), "us")
	o.set("covert.sched.noise_step_us", perBit(noise), "us")
	o.set("covert.sched.victim_step_us", perBit(victim), "us")
	o.set("covert.core.alloc_kb_per_item", float64(alloc)/1024/float64(len(msgs)), "KB")
	o.set("covert.cpu.sim_cycles_per_bit", float64(cycles)/float64(bits), "count")
	o.set("covert.bit_error_rate", float64(errs)/float64(bits), "ratio")
	o.set("covert.unattributed_share", 1-float64(attributed)/float64(tr.report.WindowNS), "ratio")
	latency, rate, err := covertWall(base.report)
	if err != nil {
		return nil, err
	}
	_, tracedRate, err := covertWall(tr.report)
	if err != nil {
		return nil, err
	}
	o.set("covert.trace_overhead", rate/tracedRate-1, "ratio")
	o.set("covert.wall.latency_ms_p50", latency, "ms")
	o.set("covert.wall.bits_per_s", rate, "1/s")
	o.note("covert.traced_messages", len(msgs))
	return o, setShares(o, "covert", profile)
}

// setPercentiles reports name_p<q> for each q that has enough samples.
func setPercentiles(o *outcome, name string, xs []float64, unit string, qs ...float64) {
	o.note(name+".samples", len(xs))
	for _, q := range qs {
		key := fmt.Sprintf("%s_p%g", name, q*100)
		if v, ok := percentile(xs, q); ok {
			o.set(key, v, unit)
		} else {
			o.problem("%s: %d samples, too few for p%g", name, len(xs), q*100)
		}
	}
}

// traceSuite runs the quick pass untraced and then with -cpuprofile.
func traceSuite(c *config) (*outcome, error) {
	o := newOutcome()
	ids := registryIDs()
	base, err := runSuitePass(c, filepath.Join(c.work, "suite-untraced"), suiteSeed, nil, "")
	if err != nil {
		return nil, err
	}
	checkSuitePass(o, base, ids)
	profile := filepath.Join(c.work, "suite.pprof")
	tr, err := runSuitePass(c, filepath.Join(c.work, "suite-traced"), suiteSeed, nil, profile)
	if err != nil {
		return nil, err
	}
	checkSuitePass(o, tr, ids)
	if base.exportSHA != tr.exportSHA {
		o.problem("suite -json export differs between untraced and traced runs of seed %d", suiteSeed)
	}
	checkExportDigest(o, c, suiteSeed, tr.exportSHA)

	var taskSum float64
	for _, r := range tr.ledger {
		taskSum += r.WallSeconds
		if slices.Contains(ids, r.ID) {
			o.set("suite.experiments."+r.ID+"_s", r.WallSeconds, "s")
		}
	}
	o.set("suite.engine.overhead_s", tr.wallS-taskSum, "s")
	start := tr.started.UnixNano()
	window := interval{start, start + int64(tr.wallS*1e9)}
	spans := suiteSpans(tr)
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = s.interval
	}
	o.set("suite.unattributed_share", 1-float64(covered(window, ivs))/float64(window.dur()), "ratio")
	o.set("suite.trace_overhead", tr.wallS/base.wallS-1, "ratio")
	o.set("suite.wall.pass_s", base.wallS, "s")
	return o, setShares(o, "suite", profile)
}

// traceService loads an untraced service and a traced one (-cpuprofile,
// archive sizes) for half the window each.
func traceService(c *config) (*outcome, error) {
	o := newOutcome()
	base, err := measureService(c, filepath.Join(c.work, "service-untraced"), "", c.window/2)
	if err != nil {
		return nil, err
	}
	checkJobs(o, append(base.inst.warmups, base.jobs...), base.events)
	profile := filepath.Join(c.work, "service.pprof")
	tr, err := measureService(c, filepath.Join(c.work, "service-traced"), profile, c.window/2)
	if err != nil {
		return nil, err
	}
	checkJobs(o, append(tr.inst.warmups, tr.jobs...), tr.events)

	phases := parseJobEvents(tr.events)
	var submit, queue, exec, archive, settle, stream, archiveKB, streamKB []float64
	var latency, unattributed int64
	for _, j := range tr.jobs {
		ph := phases[j.id]
		if j.err != "" || ph == nil || !ph.complete() {
			continue
		}
		ms := func(a, b int64) float64 { return float64(b-a) / 1e6 }
		submit = append(submit, ms(j.post, j.got201))
		queue = append(queue, ms(ph.submitted.UnixNano(), ph.started.UnixNano()))
		exec = append(exec, ms(ph.started.UnixNano(), ph.lastTaskDone.UnixNano()))
		archive = append(archive, ms(ph.lastTaskDone.UnixNano(), ph.archived.UnixNano()))
		settle = append(settle, ms(ph.archived.UnixNano(), ph.settled.UnixNano()))
		stream = append(stream, ms(ph.settled.UnixNano(), j.eof))
		archiveKB = append(archiveKB, j.archiveKB)
		streamKB = append(streamKB, float64(j.streamBytes)/1024)

		// The leaves of the job's span tree: execution counts only
		// through its task spans, so engine work between tasks is
		// unattributed.
		req := interval{j.post, j.eof}
		ivs := []interval{{j.post, j.got201}, {ph.settled.UnixNano(), j.eof}}
		for _, s := range ph.spans() {
			if s.children == nil {
				ivs = append(ivs, s.interval)
			}
			for _, c := range s.children {
				ivs = append(ivs, c.interval)
			}
		}
		latency += req.dur()
		unattributed += req.dur() - covered(req, ivs)
	}
	if len(submit) == 0 {
		return nil, fmt.Errorf("no traced job completed")
	}
	o.set("service.svc.submit_ms", mean(submit), "ms")
	setPercentiles(o, "service.svc.queue_ms", queue, "ms", 0.5, 0.9)
	o.set("service.engine.exec_ms", mean(exec), "ms")
	o.set("service.runstore.archive_ms", mean(archive), "ms")
	o.set("service.svc.settle_ms", mean(settle), "ms")
	o.set("service.obs.stream_ms", mean(stream), "ms")
	jobs := len(tr.jobs) + len(tr.inst.warmups)
	o.set("service.svc.journal_kb_per_job", fileKB(filepath.Join(tr.inst.dir, "journal"))/float64(jobs), "KB")
	o.set("service.runstore.archive_kb_per_job", mean(archiveKB), "KB")
	o.set("service.obs.stream_kb_per_job", mean(streamKB), "KB")
	o.set("service.unattributed_share", float64(unattributed)/float64(latency), "ratio")
	o.set("service.trace_overhead", base.throughput()/tr.throughput()-1, "ratio")
	wallLatency, err := base.latencyMS()
	if err != nil {
		return nil, err
	}
	o.set("service.wall.latency_ms_p50", wallLatency, "ms")
	o.set("service.wall.jobs_per_s", base.throughput(), "1/s")
	o.note("service.traced_jobs", len(tr.jobs))
	// Not gated (see README.md), but recorded for the untraced half.
	o.note("service.cpu_ms_per_job", base.cpuMS/float64(len(base.jobs)+len(base.inst.warmups)))
	o.note("service.peak_rss_mb", base.rssMB)
	return o, setShares(o, "service", profile)
}

// traceMetricNames lists every per-layer metric a traced run reports.
func traceMetricNames() []string {
	names := []string{
		"covert.sched.boot_ms", "covert.core.search_ms_p50", "covert.core.search_ms_p90",
		"covert.core.episode_us", "covert.sched.noise_step_us", "covert.sched.victim_step_us",
		"covert.core.alloc_kb_per_item", "covert.cpu.sim_cycles_per_bit", "covert.bit_error_rate",
		"covert.unattributed_share", "covert.trace_overhead", "covert.wall.latency_ms_p50", "covert.wall.bits_per_s",
	}
	for _, e := range branchscope.Experiments() {
		names = append(names, "suite.experiments."+e.ID+"_s")
	}
	names = append(names, "suite.engine.overhead_s", "suite.unattributed_share", "suite.trace_overhead", "suite.wall.pass_s",
		"service.svc.submit_ms", "service.svc.queue_ms_p50", "service.svc.queue_ms_p90",
		"service.engine.exec_ms", "service.runstore.archive_ms", "service.svc.settle_ms",
		"service.obs.stream_ms", "service.svc.journal_kb_per_job", "service.runstore.archive_kb_per_job",
		"service.obs.stream_kb_per_job", "service.unattributed_share", "service.trace_overhead",
		"service.wall.latency_ms_p50", "service.wall.jobs_per_s")
	for _, w := range []string{"covert", "suite", "service"} {
		for _, m := range profileModules {
			names = append(names, fmt.Sprintf("%s.pprof.%s_share", w, m))
		}
	}
	return names
}

// fileKB is a file's size in KiB (0 when it is missing).
func fileKB(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / 1024
}
