package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"netupdate/internal/ctl"
)

// Workload parameters. METRICS.md gives the reasons behind each.
const (
	steadyRate      = 750  // events/s offered by steady-k4 and durable-k4
	steadyBatch     = 16   // events per submit-batch request
	steadyConns     = 2    // pipelined v2 connections
	drainBacklog    = 300  // drain-k8 events
	shardBacklog    = 2000 // sharded-k8 events
	shardCount      = 4
	shardLocalShare = 0.9
	drainTimeout    = 60 * time.Second
	replSampleEvery = 10 * time.Millisecond
)

// partSeed is the seed of part i of a run (a window, a backlog or a
// timed construction): its inputs and its world are drawn from it, so a
// run's figures pool several worlds, not one.
func partSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// runOpts are one run's settings. spans is nil for an untraced run.
type runOpts struct {
	seed    int64
	seconds float64
	dir     string
	spans   *spanLog
}

// outcome is what one pass of a workload measured. fingerprint holds the
// counters that must repeat exactly for the seed ("" where the
// controller's schedule depends on wall-clock arrival).
type outcome struct {
	attempted, failed int
	e2e, layer        metrics
	fingerprint       string
}

type workload func(runOpts) (*outcome, error)

var workloads = map[string]workload{
	"steady-k4":  func(o runOpts) (*outcome, error) { return openLoop(o, false) },
	"durable-k4": func(o runOpts) (*outcome, error) { return openLoop(o, true) },
	"drain-k8":   drainK8,
	"sharded-k8": shardedK8,
}

// newOutcome starts an outcome with every per-layer metric at zero, so
// that a layer a workload does not run through still reports.
func newOutcome() *outcome {
	out := &outcome{e2e: metrics{}, layer: metrics{}}
	for _, d := range perLayer {
		out.layer.set(d.name, 0, d.unit)
	}
	return out
}

// figures is what a run measured, before it is reported.
type figures struct {
	// Wall-clock speed: completed events per second, the median event
	// latency in ns, and every attempted event's latency in ns (+Inf for
	// events that did not complete).
	completedPerS, p50Ns float64
	lat                  []float64
	// The virtual ECTs and queueing delays, in ns, of the events the
	// virtual-time metrics are taken from.
	ectNs, queueNs []float64
	setups         []float64 // timed constructions, s
	allocBytes     uint64    // allocated by the process over its traffic phases
	completed      int       // events completed in those phases
	memPeaksMB     []float64 // each traffic phase's peak memory
}

// setE2E fills the end-to-end metrics and the wall-clock figures that go
// with the per-layer metrics. The end-to-end metrics are the ones that
// do not swing with the speed of a shared host: the paper's virtual-time
// ECT and queueing delay, allocation per event, peak memory, and set-up
// time (required, and held only to its median). Wall-clock throughput
// and latency moved by 15-25 % between sets of runs of one build on a
// shared 2-CPU host, as the host itself did (see METRICS.md), so they
// carry no bound. A p99 that falls on an event that never completed has
// no value, and fails the run.
func (out *outcome) setE2E(f figures) error {
	p99 := percentile(f.lat, 0.99)
	if math.IsInf(p99, 1) {
		return fmt.Errorf("e2e p99 unresolved: more than 1%% of %d events did not complete", len(f.lat))
	}
	out.e2e.set("ect_vt_mean_ms", mean(f.ectNs)/1e6, "ms")
	out.e2e.set("queue_vt_mean_ms", mean(f.queueNs)/1e6, "ms")
	out.e2e.set("alloc_kb_per_event", ratio(float64(f.allocBytes)/1024, float64(f.completed)), "KB")
	out.e2e.set("mem_peak_mb", median(f.memPeaksMB), "MB")
	out.e2e.set("setup_s", median(f.setups), "s")
	out.layer.set("bench.completed_per_s", f.completedPerS, "events/s")
	out.layer.set("bench.e2e_p50_ms", f.p50Ns/1e6, "ms")
	out.layer.set("bench.e2e_p90_ms", percentile(f.lat, 0.9)/1e6, "ms")
	out.layer.set("bench.e2e_p99_ms", p99/1e6, "ms")
	out.layer.set("bench.ect_vt_tail_ms", tailMean(f.ectNs, 0.01)/1e6, "ms")
	out.layer.set("bench.e2e_samples", float64(len(f.lat)), "count")
	out.layer.set("bench.failed_share", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	return nil
}

// untracedLayers are the per-layer metrics a --trace 1 run takes from
// its untraced pass: end-to-end figures, which tracing would distort.
var untracedLayers = []string{"bench.completed_per_s", "bench.e2e_p50_ms", "bench.e2e_p90_ms", "bench.e2e_p99_ms", "bench.ect_vt_tail_ms"}

// allocated is the bytes the process has allocated since it started.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// Every run times at least setupMin constructions of its controller, and
// more while setupBudget lasts, up to setupMax.
const (
	setupMin    = 15
	setupMax    = 200
	setupBudget = 2 * time.Second
)

// setupTimer times constructions of a controller (build, serve, first
// answered ping) and closes each; start builds the i-th. A run of n parts
// times them in n slices, one before each part, so that set-up is timed
// under the same host load as the traffic. A full garbage collection
// before each construction keeps the garbage of one from being collected
// during the next, as it would not be in a fresh process.
type setupTimer struct {
	n     int
	start func(i int) (io.Closer, error)
	times []float64
}

// slice times 1/n of the run's constructions: at least setupMin/n, and
// more while setupBudget/n lasts, up to setupMax/n.
func (s *setupTimer) slice() error {
	lo, hi := (setupMin+s.n-1)/s.n, setupMax/s.n
	budget := setupBudget / time.Duration(s.n)
	t0 := time.Now()
	for k := 0; k < hi && (k < lo || time.Since(t0) < budget); k++ {
		runtime.GC()
		t := time.Now()
		c, err := s.start(len(s.times))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s.times = append(s.times, since(t))
		if err := c.Close(); err != nil {
			return err
		}
	}
	return nil
}

// checkResults is the correctness gate on a controller's outputs: every
// accepted event is done, reported once, with the flow count it was
// submitted with, and every flow either admitted or failed.
func checkResults(tr *traffic, done int, results []ctl.EventStatus) error {
	if err := tr.checkOutcomes(); err != nil {
		return err
	}
	if done != len(tr.accepted) {
		return fmt.Errorf("%d events done, %d accepted", done, len(tr.accepted))
	}
	if len(results) != len(tr.accepted) {
		return fmt.Errorf("%d results, %d accepted", len(results), len(tr.accepted))
	}
	seen := make(map[int64]bool, len(results))
	for _, r := range results {
		ev, ok := tr.accepted[r.EventID]
		switch {
		case !ok || seen[r.EventID]:
			return fmt.Errorf("result for unknown or repeated event %d", r.EventID)
		case r.State != ctl.StateDone:
			return fmt.Errorf("event %d in state %s", r.EventID, r.State)
		case r.Flows != ev.flows:
			return fmt.Errorf("event %d: %d flows, submitted %d", r.EventID, r.Flows, ev.flows)
		case r.Admitted+r.Failed != r.Flows:
			return fmt.Errorf("event %d: %d admitted + %d failed of %d flows", r.EventID, r.Admitted, r.Failed, r.Flows)
		}
		seen[r.EventID] = true
	}
	return nil
}

// resultCounters sums the ECT samples and flow outcomes of results.
func resultCounters(results []ctl.EventStatus) (ectNs []float64, flows, failed int) {
	for _, r := range results {
		ectNs = append(ectNs, float64(r.ECT))
		flows += r.Flows
		failed += r.Failed
	}
	return ectNs, flows, failed
}

// queueDelays are the virtual queueing delays of results, in ns.
func queueDelays(results []ctl.EventStatus) []float64 {
	out := make([]float64, 0, len(results))
	for _, r := range results {
		out = append(out, float64(r.QueuingDelay))
	}
	return out
}

// engineLayers sets the per-layer metrics read off one engine's Stats
// and results.
func engineLayers(m metrics, st ctl.Stats, results []ctl.EventStatus) {
	done := float64(st.EventsDone)
	_, flows, failed := resultCounters(results)
	m.set("sched.rounds_per_event", ratio(float64(st.Rounds), done), "count")
	m.set("core.probe_hit_ratio", ratio(float64(st.ProbeCacheHits), float64(st.ProbeCacheHits+st.ProbeCacheMisses)), "ratio")
	m.set("core.cold_plans_per_event", ratio(float64(st.ProbeColdPlans), done), "count")
	m.set("core.incremental_replans_per_event", ratio(float64(st.ProbeIncrementalReplans), done), "count")
	m.set("core.flows_unadmitted_share", ratio(float64(failed), float64(flows)), "ratio")
	m.set("obs.spans_dropped", float64(st.SpansDropped), "count")
}

// pickLayers sets the scheduler metrics from the "sched.pick" spans;
// busyS is the wall time the picks shared.
func pickLayers(m metrics, spans *spanLog, counts *pickCounts, busyS float64) {
	picks := spans.durations("sched.pick")
	n := float64(counts.picks.Load())
	m.set("sched.pick_ms_mean", mean(picks)/1e6, "ms")
	m.set("sched.pick_ms_p99", percentile(picks, 0.99)/1e6, "ms")
	m.set("sched.pick_share", ratio(sum(picks)/1e9, busyS), "ratio")
	m.set("sched.evals_per_round", ratio(float64(counts.evals.Load()), n), "count")
	m.set("sched.coscheduled_per_round", ratio(float64(counts.offered.Load()), n), "count")
}

// memDelta sets the process metrics over a traffic phase.
func memDelta(m metrics, before, after *runtime.MemStats, events int) {
	m.set("process.alloc_kb_per_event", ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(events)), "KB")
	m.set("process.gc_cycles", float64(after.NumGC-before.NumGC), "count")
	m.set("process.heap_mb_end", float64(after.HeapAlloc)/(1<<20), "MB")
}

// queueLayers sets the state-loop split from the completion records.
func queueLayers(m metrics, sink *completions) {
	sink.mu.Lock()
	var queue, rounds []float64
	for _, c := range sink.done {
		queue = append(queue, float64(c.queueNs))
		rounds = append(rounds, float64(c.roundsNs))
	}
	sink.mu.Unlock()
	m.set("ctl.queue_wait_p50_ms", percentile(queue, 0.5)/1e6, "ms")
	m.set("ctl.queue_wait_p99_ms", percentile(queue, 0.99)/1e6, "ms")
	m.set("ctl.in_rounds_p99_ms", percentile(rounds, 0.99)/1e6, "ms")
}

func trafficLayers(m metrics, tr *traffic) {
	m.set("ctl.ack_p50_ms", percentile(tr.ackNs, 0.5)/1e6, "ms")
	m.set("ctl.ack_p99_ms", percentile(tr.ackNs, 0.99)/1e6, "ms")
	m.set("loadgen.late_p99_ms", percentile(tr.lateNs, 0.99)/1e6, "ms")
}

func finalState(srv *ctl.Server) (ctl.Stats, []ctl.EventStatus, error) {
	st, err := srv.Stats()
	if err != nil {
		return st, nil, err
	}
	results, err := srv.Results()
	return st, results, err
}

// drainFingerprint is the part of a drain that depends only on the seed:
// rounds, probe-cache outcomes, flow outcomes and the exact virtual ECTs.
func drainFingerprint(st ctl.Stats, results []ctl.EventStatus) string {
	ectNs, _, failed := resultCounters(results)
	sort.Float64s(ectNs)
	return fmt.Sprintf("rounds=%d probe_hits=%d probe_misses=%d cold=%d incremental=%d failed_flows=%d ect_sum_ns=%.0f ect_p99_ns=%.0f",
		st.Rounds, st.ProbeCacheHits, st.ProbeCacheMisses, st.ProbeColdPlans, st.ProbeIncrementalReplans,
		failed, sum(ectNs), percentile(ectNs, 0.99))
}
