package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/sched"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// openWindow is how long the open-loop workloads offer load to one
// controller; a run offers max(1, seconds/openWindow) windows, each to a
// fresh controller. A window of 6000 events holds one checkpoint at the
// default cadence of 4096 records.
const openWindow = 8 * time.Second

// openLoop runs steady-k4, or durable-k4 when durable is set: Poisson
// traffic into k=4 controllers, window by window. Window i's inputs and
// world are drawn from partSeed(seed, i), the same for both workloads.
//
// The wall-clock figures pool every window. The virtual-time metrics come
// from the window whose events have the lowest mean ECT. Wall-clock
// stalls of the state loop (a checkpoint, a wait for the follower's ack,
// the host taking the CPU away) let arrivals pile up, and events
// scheduled together wait for each other in virtual time too, so a
// window's ECT holds how much the host disturbed it; the least disturbed
// window is the one that tells of the scheduler.
func openLoop(o runOpts, durable bool) (*outcome, error) {
	const k, util = 4, 0.3
	ft, err := topology.NewFatTree(k, topology.Gbps)
	if err != nil {
		return nil, err
	}
	window := min(openWindow, time.Duration(o.seconds*float64(time.Second)))
	n := max(1, int(o.seconds/openWindow.Seconds()))
	out := newOutcome()
	var counts pickCounts
	spec := func(name string, i int) serverSpec {
		sp := serverSpec{k: k, util: util, seed: partSeed(o.seed, i)}
		if durable {
			sp.walDir = filepath.Join(o.dir, name)
		}
		return sp
	}
	setups := &setupTimer{n: n, start: func(i int) (io.Closer, error) {
		sv, _, err := startServer(spec(fmt.Sprintf("setup-%d", i), i))
		return sv, err
	}}
	var lat, allEctNs []float64
	var busy float64
	var done int
	var allocBytes uint64
	var memPeaks []float64
	var last, best *windowResult
	for i := 0; i < n; i++ {
		if err := setups.slice(); err != nil {
			return nil, err
		}
		sp := spec(fmt.Sprintf("leader-%d", i), i)
		bs := steadyInputs(sp.seed, ft.Hosts(), steadyRate, window, steadyBatch)
		if o.spans != nil {
			sp.wrap = func(s sched.Scheduler) sched.Scheduler { return wrapScheduler(s, o.spans, &counts) }
		}
		var layers metrics
		if o.spans != nil && i == n-1 {
			layers = out.layer
		}
		r, err := openOnce(sp, filepath.Join(o.dir, fmt.Sprintf("follower-%d", i)), bs, durable, o.spans, layers)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", i, err)
		}
		lat = append(lat, r.lat...)
		allEctNs = append(allEctNs, r.ectNs...)
		if best == nil || mean(r.ectNs) < mean(best.ectNs) {
			best = r
		}
		allocBytes += r.allocBytes
		memPeaks = append(memPeaks, r.memPeakMB)
		busy += r.busyS
		done += r.done
		out.attempted += r.tr.attempts
		out.failed += r.tr.failed(r.done)
		last = r
	}
	if err := out.setE2E(figures{
		completedPerS: float64(done) / (float64(n) * window.Seconds()), p50Ns: percentile(lat, 0.5), lat: lat,
		ectNs: best.ectNs, queueNs: best.queueNs, setups: setups.times, allocBytes: allocBytes, completed: done, memPeaksMB: memPeaks,
	}); err != nil {
		return nil, err
	}
	// The tail tells of the stalls, so it comes from every window.
	out.layer.set("bench.ect_vt_tail_ms", tailMean(allEctNs, 0.01)/1e6, "ms")
	if o.spans == nil {
		return out, nil
	}
	pickLayers(out.layer, o.spans, &counts, busy)
	// The kernels run on the last window's world and inputs.
	sp := spec("", n-1)
	w, err := buildWorld(k, util, sp.seed, true)
	if err != nil {
		return nil, err
	}
	return out, kernels(out.layer, o.spans, w, last.bs, sp.meta(), last.ckptBody, filepath.Join(o.dir, "kernel-wal"))
}

// windowResult is one open-loop window.
type windowResult struct {
	bs         []batch
	tr         *traffic
	done       int
	busyS      float64 // first send to last completion
	lat, ectNs []float64
	queueNs    []float64 // virtual queueing delays
	allocBytes uint64    // allocated by the process while traffic ran
	memPeakMB  float64   // the process's peak memory while traffic ran
	ckptBody   []byte    // the checkpoint state a WAL kernel rotates
}

// openOnce builds a controller (and for durable-k4 its follower), offers
// bs on schedule, drains, checks the outputs, and for durable-k4 times
// recovery from the leader's WAL. With layers set it also records the
// window's per-layer metrics there.
func openOnce(sp serverSpec, followerDir string, bs []batch, durable bool, spans *spanLog, layers metrics) (*windowResult, error) {
	sink := newCompletions()
	sp.sink = sink
	sv, _, err := startServer(sp)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer sv.Close()
	r := &windowResult{bs: bs}

	var follower *ctl.Server
	var sampler *replSampler
	if durable {
		if follower, err = startFollower(sp, followerDir, sv.addr); err != nil {
			return nil, err
		}
		defer follower.Close()
		if layers != nil {
			sampler = startReplSampler(sv.srv, filepath.Join(sp.walDir, "checkpoint.json"))
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	mem := startMemPeak()
	r.tr, err = send(sv.addr, steadyConns, bs, spans, 0)
	if err == nil {
		sink.wait(len(r.tr.accepted), drainTimeout)
	}
	r.memPeakMB = mem.stop()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if sampler != nil {
		sampler.stop()
	}
	st, results, err := finalState(sv.srv)
	if err != nil {
		return nil, err
	}
	r.done = st.EventsDone
	if err := checkResults(r.tr, r.done, results); err != nil {
		return nil, err
	}
	var lastDone time.Time
	r.lat, lastDone = r.tr.latencies(sink.wallNs)
	r.busyS = lastDone.Sub(r.tr.start).Seconds()
	r.ectNs, _, _ = resultCounters(results)
	r.queueNs = queueDelays(results)
	if layers != nil {
		engineLayers(layers, st, results)
		trafficLayers(layers, r.tr)
		queueLayers(layers, sink)
		memDelta(layers, &ms0, &ms1, r.done)
		// A network snapshot stands in for the checkpoint body where the
		// window wrote none.
		if r.ckptBody, err = snapshotBody(sv.srv); err != nil {
			return nil, err
		}
	}
	if !durable {
		return r, nil
	}

	fst, err := waitFollower(follower, st.WALLastSeq)
	if err != nil {
		return nil, err
	}
	if err := follower.Close(); err != nil {
		return nil, fmt.Errorf("follower close: %w", err)
	}
	if err := sv.Close(); err != nil {
		return nil, err
	}
	ckptPath := filepath.Join(sp.walDir, "checkpoint.json")
	if body, err := checkpointState(ckptPath); err == nil {
		r.ckptBody = body
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	recovery, replayed, err := recoverLeader(sp, st.EventsDone)
	if err != nil {
		return nil, err
	}
	if layers != nil {
		layers.set("wal.recovery_ms", recovery*1e3, "ms")
		layers.set("wal.replayed_records", float64(replayed), "count")
		layers.set("wal.checkpoints", float64(st.WALCheckpoints), "count")
		layers.set("repl.records_applied", float64(fst.ReplRecordsApplied), "count")
		layers.set("repl.follower_drops", float64(st.ReplFollowerDrops), "count")
		sampler.report(layers, ckptPath)
	}
	return r, nil
}

// snapshotBody is the JSON network snapshot of srv.
func snapshotBody(srv *ctl.Server) ([]byte, error) {
	snap, err := srv.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.Marshal(snap)
}

// checkpointState reads the state document of the checkpoint at path.
func checkpointState(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("leader checkpoint: %w", err)
	}
	var ck wal.Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("leader checkpoint: %w", err)
	}
	return ck.State, nil
}

// waitFollower waits until the follower has logged every record up to
// the leader's last sequence number.
func waitFollower(f *ctl.Server, lastSeq int64) (ctl.Stats, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := f.Stats()
		if err != nil {
			return st, err
		}
		if st.WALLastSeq >= lastSeq {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("follower at seq %d, leader at %d", st.WALLastSeq, lastSeq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// recoverLeader reopens the closed leader's WAL in a fresh controller,
// times construction until it serves, and checks it folded back to the
// leader's completed-event count.
func recoverLeader(sp serverSpec, wantDone int) (seconds float64, replayed int64, err error) {
	sp.sink, sp.wrap = nil, nil
	t0 := time.Now()
	sv, rec, err := startServer(sp)
	if err != nil {
		return 0, 0, fmt.Errorf("recovery: %w", err)
	}
	seconds = since(t0)
	defer sv.Close()
	st, err := sv.srv.Stats()
	if err != nil {
		return 0, 0, err
	}
	if st.EventsDone != wantDone {
		return 0, 0, fmt.Errorf("recovered %d done events, leader had %d", st.EventsDone, wantDone)
	}
	return seconds, int64(rec.ReplayedRecords), nil
}

// replSampler samples a leader's replication lag and checkpoint size at
// a fixed cadence while traffic runs.
type replSampler struct {
	done      chan struct{}
	wg        sync.WaitGroup
	lag       []float64
	firstCkKB float64
}

func startReplSampler(srv *ctl.Server, ckptPath string) *replSampler {
	s := &replSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(replSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
			st, err := srv.Stats()
			if err != nil {
				continue
			}
			s.lag = append(s.lag, float64(st.ReplLagRecords))
			if s.firstCkKB == 0 && st.WALCheckpoints > 0 {
				if fi, err := os.Stat(ckptPath); err == nil {
					s.firstCkKB = float64(fi.Size()) / 1024
				}
			}
		}
	}()
	return s
}

func (s *replSampler) stop() {
	close(s.done)
	s.wg.Wait()
}

// report sets the sampled metrics and the size of the checkpoint at
// ckptPath, the window's last.
func (s *replSampler) report(m metrics, ckptPath string) {
	m.set("repl.lag_records_p99", percentile(s.lag, 0.99), "count")
	m.set("wal.checkpoint_kb_first", s.firstCkKB, "KB")
	if fi, err := os.Stat(ckptPath); err == nil {
		m.set("wal.checkpoint_kb_last", float64(fi.Size())/1024, "KB")
	}
}
