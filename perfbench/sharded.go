package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/shard"
	"netupdate/internal/topology"
)

// doneCurve samples the cluster's completed-event count at a fixed
// cadence. The engines are built by shard.NewCluster, which takes no span
// sink, so a backlog's completion times are read off this curve: the
// n-th completion happened by the first sample showing n done. At 10 ms
// that resolves a drain of several seconds to well under 1 %.
type doneCurve struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	at    []int64 // Unix ns
	done  []int
}

const curveEvery = 10 * time.Millisecond

// eventsDoneMetric is an engine's completed-event counter.
const eventsDoneMetric = "netupdate_events_done_total"

func startCurve(count func() (int, error)) *doneCurve {
	c := &doneCurve{stopc: make(chan struct{})}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			n, err := count()
			if err == nil {
				c.mu.Lock()
				c.at = append(c.at, time.Now().UnixNano())
				c.done = append(c.done, n)
				c.mu.Unlock()
			}
			select {
			case <-c.stopc:
				return
			case <-time.After(curveEvery):
			}
		}
	}()
	return c
}

// wait blocks until a sample shows want events done or timeout passes,
// then stops sampling and returns the last count.
func (c *doneCurve) wait(want int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.last() >= want {
			break
		}
		time.Sleep(curveEvery)
	}
	close(c.stopc)
	c.wg.Wait()
	return c.last()
}

func (c *doneCurve) last() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.done) == 0 {
		return 0
	}
	return c.done[len(c.done)-1]
}

// completionTimes returns the time (Unix ns) of the 1st..n-th
// completion.
func (c *doneCurve) completionTimes(n int) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, 0, n)
	for i := range c.done {
		for len(out) < min(c.done[i], n) {
			out = append(out, c.at[i])
		}
	}
	return out
}

// shardEvery is how much of the run's --seconds one sharded-k8 backlog
// stands for. A backlog's virtual-time figures and allocations repeat
// exactly for its seed, so the spread between runs is the spread between
// the worlds they pool; more, smaller backlogs pool more worlds.
const shardEvery = 2.0

// shardedK8 drains backlogs of mostly pod-local events through the
// gateway of a 4-shard k=8 cluster over one connection, one fresh
// cluster per backlog, max(2, seconds/shardEvery) backlogs per run.
// Backlog i of a run and its cluster are drawn from partSeed(seed, i).
// Each backlog goes to the gateway in one request, which hands every
// shard its part in one call, so each engine holds its whole part before
// its first round and the schedules depend on the seed alone.
func shardedK8(o runOpts) (*outcome, error) {
	const k, util = 8, 0.75
	ref, err := topology.NewFatTree(k, topology.Gbps)
	if err != nil {
		return nil, err
	}
	n := max(2, int(o.seconds/shardEvery))
	backlogs := make([][]batch, n)
	var all []batch
	for i := range backlogs {
		backlogs[i] = podBacklog(partSeed(o.seed, i), ref, shardBacklog, shardBacklog, shardLocalShare)
		all = append(all, backlogs[i]...)
	}
	out := newOutcome()
	out.layer.set("shard.pod_local_share", podLocalShare(ref, all), "ratio")
	cs := clusterSpec{cfg: shard.WorldConfig{K: k, Util: util, Scheduler: schedName, Alpha: alpha,
		Watermark: 2 * shardBacklog, Shards: shardCount}}
	plain := cs.cfg
	setups := &setupTimer{n: n, start: func(i int) (io.Closer, error) {
		cfg := plain
		cfg.Seed = partSeed(o.seed, i)
		return startCluster(clusterSpec{cfg: cfg})
	}}
	var counts pickCounts
	if o.spans != nil {
		hs := &handleSpans{spans: o.spans}
		cs.cfg.Scheduler = registerTimed(o.spans, &counts)
		cs.wrapBackend = func(b ctl.Backend) ctl.Backend { return &timedBackend{Backend: b, handle: hs} }
		cs.handle = hs.wrap
	}

	var rates, p50s, lat, ectNs, queueNs []float64
	var busy float64
	var allocBytes uint64
	var done int
	var memPeaks []float64
	var ms0, ms1 runtime.MemStats
	var first *clusterDrain
	var ckptBody []byte
	for i, bs := range backlogs {
		if err := setups.slice(); err != nil {
			return nil, err
		}
		cs.cfg.Seed = partSeed(o.seed, i)
		c, err := startCluster(cs)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i == 0 {
			runtime.ReadMemStats(&ms0)
		}
		r, err := drainCluster(c, bs, o.spans, uint64(i*len(bs)))
		if err == nil && i == 0 && o.spans != nil {
			ckptBody, err = snapshotBody(c.cl.Worlds[0].Server)
		}
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("backlog %d: %w", i, err)
		}
		if i == 0 {
			runtime.ReadMemStats(&ms1)
			first = r
		}
		allocBytes += r.allocBytes
		memPeaks = append(memPeaks, r.memPeakMB)
		done += r.done
		rates = append(rates, ratio(float64(r.done), r.drainS))
		p50s = append(p50s, percentile(r.lat, 0.5))
		busy += r.drainS
		lat = append(lat, r.lat...)
		ectNs = append(ectNs, r.ectNs...)
		queueNs = append(queueNs, queueDelays(r.results)...)
		out.attempted += r.tr.attempts
		out.failed += r.tr.failed(r.done)
	}
	if err := out.setE2E(figures{
		completedPerS: median(rates), p50Ns: median(p50s), lat: lat,
		ectNs: ectNs, queueNs: queueNs, setups: setups.times, allocBytes: allocBytes, completed: done, memPeaksMB: memPeaks,
	}); err != nil {
		return nil, err
	}
	if o.spans == nil {
		return out, nil
	}
	m := out.layer
	r := first
	engineLayers(m, r.stats, r.results)
	trafficLayers(m, r.tr)
	memDelta(m, &ms0, &ms1, r.done)
	m.set("ctl.queue_wait_p50_ms", float64(r.stats.LatencyQueueP50Ns)/1e6, "ms")
	m.set("ctl.queue_wait_p99_ms", float64(r.stats.LatencyQueueP99Ns)/1e6, "ms")
	m.set("ctl.in_rounds_p99_ms", float64(r.stats.LatencyRoundsP99Ns)/1e6, "ms")
	m.set("shard.cross_share", ratio(float64(r.crossAdmitted+r.crossRefused), float64(r.tr.attempts)), "ratio")
	m.set("shard.cross_refused_share", ratio(float64(r.crossRefused), float64(r.crossAdmitted+r.crossRefused)), "ratio")
	// Four engines pick concurrently, each on its own state loop.
	pickLayers(m, o.spans, &counts, busy*shardCount)
	self := o.spans.selfTimes("shard.handle")
	m.set("shard.gateway_self_us_p50", percentile(self, 0.5)/1e3, "us")
	m.set("shard.gateway_self_us_p99", percentile(self, 0.99)/1e3, "us")
	m.set("shard.backend_call_us_p99", percentile(o.spans.durations("shard.backend"), 0.99)/1e3, "us")
	// The kernels run on the unsharded world of the first backlog.
	w, err := buildWorld(k, util, partSeed(o.seed, 0), true)
	if err != nil {
		return nil, err
	}
	meta := serverSpec{k: k, util: util, seed: partSeed(o.seed, 0), watermark: 2 * shardBacklog}.meta()
	return out, kernels(m, o.spans, w, backlogs[0], meta, ckptBody, filepath.Join(o.dir, "kernel-wal"))
}

// clusterDrain is one drain of a backlog through a cluster.
type clusterDrain struct {
	tr                          *traffic
	done                        int
	drainS                      float64
	lat, ectNs                  []float64 // e2e latencies in ns, virtual ECTs
	stats                       ctl.Stats // worst shard's latency split, summed counters
	results                     []ctl.EventStatus
	crossAdmitted, crossRefused int64
	allocBytes                  uint64  // allocated by the process from the first send to the last completion
	memPeakMB                   float64 // the process's peak memory over the same time
}

func drainCluster(c *cluster, bs []batch, spans *spanLog, seqBase uint64) (*clusterDrain, error) {
	servers := make([]*ctl.Server, len(c.cl.Worlds))
	for i, w := range c.cl.Worlds {
		servers[i] = w.Server
	}
	// The count comes from each engine's metric registry, whose values
	// are atomics read off the engines' state loops.
	curve := startCurve(func() (int, error) {
		n := 0
		for _, s := range servers {
			v, ok := s.Registry().Snapshot()[eventsDoneMetric].(int64)
			if !ok {
				return 0, fmt.Errorf("no %s in the engine's registry", eventsDoneMetric)
			}
			n += int(v)
		}
		return n, nil
	})
	a0 := allocated()
	mem := startMemPeak()
	tr, err := send(c.addr, 1, bs, spans, seqBase)
	if err != nil {
		curve.wait(0, 0)
		mem.stop()
		return nil, err
	}
	done := curve.wait(len(tr.accepted), drainTimeout)
	r := &clusterDrain{tr: tr, done: done, memPeakMB: mem.stop(), allocBytes: allocated() - a0}
	for _, s := range servers {
		st, results, err := finalState(s)
		if err != nil {
			return nil, err
		}
		r.results = append(r.results, results...)
		r.stats = mergeShardStats(r.stats, st)
	}
	if err := checkResults(tr, r.stats.EventsDone, r.results); err != nil {
		return nil, err
	}
	times := curve.completionTimes(done)
	for _, t := range times {
		r.lat = append(r.lat, float64(t-tr.start.UnixNano()))
	}
	for len(r.lat) < tr.attempts {
		r.lat = append(r.lat, inf)
	}
	if len(times) > 0 {
		r.drainS = time.Duration(times[len(times)-1] - tr.start.UnixNano()).Seconds()
	}
	r.ectNs, _, _ = resultCounters(r.results)
	r.crossAdmitted, r.crossRefused = c.cl.Cross.Counters()
	return r, nil
}

// mergeShardStats sums the counters the benchmark reads and keeps the
// worst shard's latency split.
func mergeShardStats(a, b ctl.Stats) ctl.Stats {
	a.EventsDone += b.EventsDone
	a.Rounds += b.Rounds
	a.ProbeCacheHits += b.ProbeCacheHits
	a.ProbeCacheMisses += b.ProbeCacheMisses
	a.ProbeColdPlans += b.ProbeColdPlans
	a.ProbeIncrementalReplans += b.ProbeIncrementalReplans
	a.SpansDropped += b.SpansDropped
	a.LatencyQueueP50Ns = max(a.LatencyQueueP50Ns, b.LatencyQueueP50Ns)
	a.LatencyQueueP99Ns = max(a.LatencyQueueP99Ns, b.LatencyQueueP99Ns)
	a.LatencyRoundsP99Ns = max(a.LatencyRoundsP99Ns, b.LatencyRoundsP99Ns)
	return a
}
