package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/sched"
	"netupdate/internal/topology"
)

// drainEvery is how much of the run's --seconds one drain-k8 backlog
// stands for: the run drains max(2, seconds/drainEvery) backlogs, a count
// fixed by the arguments alone so that the run's counters are too.
const drainEvery = 4.0

// drainK8 drains backlogs of paper-shaped events through a k=8
// controller, one fresh controller per backlog. Backlog i of a run and
// its world are drawn from partSeed(seed, i). Each backlog goes to the
// controller in one request, so it is admitted in full before the first
// round and the schedule depends on the seed alone.
func drainK8(o runOpts) (*outcome, error) {
	const k, util = 8, 0.6
	ft, err := topology.NewFatTree(k, topology.Gbps)
	if err != nil {
		return nil, err
	}
	n := max(2, int(o.seconds/drainEvery))
	sp := serverSpec{k: k, util: util, watermark: 2 * drainBacklog}
	setups := &setupTimer{n: n, start: func(i int) (io.Closer, error) {
		sp := sp
		sp.seed = partSeed(o.seed, i)
		sv, _, err := startServer(sp)
		return sv, err
	}}
	out := newOutcome()
	var counts pickCounts
	var rates, p50s, lat, ectNs, queueNs []float64
	var busy float64
	var allocBytes uint64
	var done int
	var memPeaks []float64
	var fps []string
	var ms0, ms1 runtime.MemStats
	var last *drainResult
	for i := 0; i < n; i++ {
		if err := setups.slice(); err != nil {
			return nil, err
		}
		sp.seed = partSeed(o.seed, i)
		bs, err := paperBacklog(sp.seed, ft.Hosts(), drainBacklog, drainBacklog)
		if err != nil {
			return nil, err
		}
		sink := newCompletions()
		sp.sink = sink
		if o.spans != nil {
			sp.wrap = func(s sched.Scheduler) sched.Scheduler { return wrapScheduler(s, o.spans, &counts) }
		}
		if i == 0 {
			runtime.ReadMemStats(&ms0)
		}
		r, err := drainOnce(sp, bs, sink, o.spans, uint64(i*len(bs)), i == n-1 && o.spans != nil)
		if err != nil {
			return nil, fmt.Errorf("backlog %d: %w", i, err)
		}
		allocBytes += r.allocBytes
		memPeaks = append(memPeaks, r.memPeakMB)
		done += r.done
		if i == 0 {
			runtime.ReadMemStats(&ms1)
			if o.spans != nil {
				queueLayers(out.layer, sink)
				memDelta(out.layer, &ms0, &ms1, r.done)
			}
		}
		rates = append(rates, ratio(float64(r.done), r.drainS))
		p50s = append(p50s, percentile(r.lat, 0.5))
		lat = append(lat, r.lat...)
		busy += r.drainS
		ectNs = append(ectNs, r.ectNs...)
		queueNs = append(queueNs, queueDelays(r.results)...)
		fps = append(fps, r.fingerprint)
		out.attempted += r.tr.attempts
		out.failed += r.tr.failed(r.done)
		last = r
	}
	out.fingerprint = strings.Join(fps, "\n")
	build, err := buildID()
	if err != nil {
		return nil, err
	}
	if err := checkFingerprint(o, build, n, out.fingerprint); err != nil {
		return nil, err
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
	engineLayers(m, last.stats, last.results)
	trafficLayers(m, last.tr)
	pickLayers(m, o.spans, &counts, busy)
	// The kernels run on the last backlog's world, and the codec and WAL
	// kernels replay its events in batches.
	w, err := buildWorld(k, util, sp.seed, true)
	if err != nil {
		return nil, err
	}
	bs, err := paperBacklog(sp.seed, ft.Hosts(), drainBacklog, steadyBatch)
	if err != nil {
		return nil, err
	}
	return out, kernels(m, o.spans, w, bs, sp.meta(), last.snapshot, filepath.Join(o.dir, "kernel-wal"))
}

// drainResult is one backlog's drain.
type drainResult struct {
	tr          *traffic
	done        int
	drainS      float64
	lat, ectNs  []float64
	stats       ctl.Stats
	results     []ctl.EventStatus
	fingerprint string
	snapshot    []byte
	allocBytes  uint64  // allocated by the process from the first send to the last completion
	memPeakMB   float64 // the process's peak memory over the same time
}

// drainOnce builds a controller, submits bs, waits for the drain and
// checks the outputs. The drain's clock runs from the first send to the
// last completion; every event is due at the first send.
func drainOnce(sp serverSpec, bs []batch, sink *completions, spans *spanLog, seqBase uint64, snapshot bool) (*drainResult, error) {
	sv, _, err := startServer(sp)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r := &drainResult{}
	err = func() error {
		a0 := allocated()
		mem := startMemPeak()
		r.tr, err = send(sv.addr, 1, bs, spans, seqBase)
		if err == nil {
			sink.wait(len(r.tr.accepted), drainTimeout)
		}
		r.memPeakMB = mem.stop()
		if err != nil {
			return err
		}
		r.allocBytes = allocated() - a0
		if r.stats, r.results, err = finalState(sv.srv); err != nil {
			return err
		}
		r.done = r.stats.EventsDone
		if err := checkResults(r.tr, r.done, r.results); err != nil {
			return err
		}
		if snapshot {
			r.snapshot, err = snapshotBody(sv.srv)
		}
		return err
	}()
	if cerr := sv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var lastDone time.Time
	r.lat, lastDone = r.tr.latencies(sink.wallNs)
	r.drainS = lastDone.Sub(r.tr.start).Seconds()
	r.ectNs, _, _ = resultCounters(r.results)
	r.fingerprint = drainFingerprint(r.stats, r.results)
	return r, nil
}

// checkFingerprint compares a drain-k8 run's deterministic counters with
// those an earlier run of the same build, seed and backlog count left in
// the work directory, and leaves them there for the next run. A build of
// other code may mean to schedule differently, so it keeps its own.
func checkFingerprint(o runOpts, build string, n int, fp string) error {
	path := filepath.Join(filepath.Dir(filepath.Dir(o.dir)), "fingerprints", build, fmt.Sprintf("drain-k8-seed%d-n%d.txt", o.seed, n))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != fp {
			return fmt.Errorf("schedule differs from an earlier run of seed %d by this build:\n  earlier %s\n  now     %s", o.seed, prev, fp)
		}
		return nil
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(fp), 0o644)
}

// buildID names the running binary by a hash of its bytes. Go builds
// are reproducible, so one source tree gives one ID and changed code
// another.
var buildID = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
})
