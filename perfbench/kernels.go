package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/ctl"
	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// Standalone kernel timings run after the traffic, on a fresh copy of the
// workload's world and on the workload's own inputs. Each call is one
// span; the metrics are read back off the spans.
const (
	kernelBatches = 256 // codec and WAL batches replayed
	kernelEvents  = 64  // events probed
	kernelFlows   = 256 // flows admitted
	kernelReps    = 30  // forks, syncs
	rotateReps    = 5
	kernelEventID = 1 << 40 // above any ID the run's controller minted
)

// kernels times codec, netstate, core, migration and WAL calls and adds
// their metrics to m. ckptBody is the checkpoint state Rotate writes;
// dir is a scratch directory for the replayed log.
func kernels(m metrics, spans *spanLog, w *world, bs []batch, meta *wal.Meta, ckptBody []byte, dir string) error {
	bs = bs[:min(len(bs), kernelBatches)]
	if err := codecKernel(m, spans, bs); err != nil {
		return err
	}
	netstateKernel(m, spans, w.net)
	if err := probeKernel(m, spans, w.planner, bs); err != nil {
		return err
	}
	if err := admitKernel(m, spans, w.planner.Migration(), bs); err != nil {
		return err
	}
	return walKernel(m, spans, bs, meta, ckptBody, dir)
}

func timed(spans *spanLog, name string, fn func()) {
	start := time.Now()
	fn()
	spans.record(0, name, 0, 0, start, time.Now())
}

func codecKernel(m metrics, spans *spanLog, bs []batch) error {
	var buf []byte
	var events, bytes int
	for _, b := range bs {
		req := ctl.Request{Op: ctl.OpSubmitBatch, Events: b.Events}
		var err error
		timed(spans, "ctl.encode", func() { buf, err = ctl.AppendRequestFrame(buf[:0], &req) })
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		var got *ctl.Request
		timed(spans, "ctl.decode", func() { got, err = ctl.ParseRequest(buf) })
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		if len(got.Events) != len(b.Events) {
			return fmt.Errorf("codec round trip: %d events, want %d", len(got.Events), len(b.Events))
		}
		events += len(b.Events)
		bytes += len(buf)
	}
	m.set("ctl.encode_ns_per_event", sum(spans.durations("ctl.encode"))/float64(events), "ns")
	m.set("ctl.decode_ns_per_event", sum(spans.durations("ctl.decode"))/float64(events), "ns")
	m.set("ctl.frame_bytes_per_event", float64(bytes)/float64(events), "bytes")
	return nil
}

func netstateKernel(m metrics, spans *spanLog, nw *netstate.Network) {
	var fork *netstate.Network
	for i := 0; i < kernelReps; i++ {
		timed(spans, "netstate.fork", func() { fork = nw.Fork() })
	}
	for i := 0; i < kernelReps; i++ {
		timed(spans, "netstate.syncfrom", func() { fork.SyncFrom(nw) })
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < kernelReps; i++ {
		fork = nw.Fork()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(fork)
	m.set("netstate.fork_us", median(spans.durations("netstate.fork"))/1e3, "us")
	m.set("netstate.fork_allocs", float64(after.Mallocs-before.Mallocs)/kernelReps, "count")
	m.set("netstate.fork_kb", float64(after.TotalAlloc-before.TotalAlloc)/kernelReps/1024, "KB")
	m.set("netstate.syncfrom_us", median(spans.durations("netstate.syncfrom"))/1e3, "us")
}

// coreEvent turns a submitted spec into an engine event with the given ID.
func coreEvent(id int64, spec *ctl.EventSpec) *core.Event {
	specs := make([]flow.Spec, len(spec.Flows))
	for i, f := range spec.Flows {
		specs[i] = flow.Spec{Src: topology.NodeID(f.Src), Dst: topology.NodeID(f.Dst), Demand: topology.Bandwidth(f.DemandBps), Size: f.SizeBytes}
	}
	return core.NewEvent(flow.EventID(id), "bench", 0, specs)
}

func probeKernel(m metrics, spans *spanLog, planner *core.Planner, bs []batch) error {
	n := 0
	for _, b := range bs {
		for i := range b.Events {
			if n == kernelEvents {
				break
			}
			ev := coreEvent(kernelEventID+int64(n), &b.Events[i])
			var err error
			timed(spans, "core.probe", func() { _, err = planner.Probe(ev) })
			if err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			n++
		}
	}
	m.set("core.probe_us", median(spans.durations("core.probe"))/1e3, "us")
	return nil
}

func admitKernel(m metrics, spans *spanLog, mig *migration.Planner, bs []batch) error {
	var specs []flow.Spec
	for _, b := range bs {
		for i := range b.Events {
			specs = append(specs, coreEvent(kernelEventID, &b.Events[i]).Specs...)
		}
	}
	specs = specs[:min(len(specs), kernelFlows)]
	nw := mig.Network()
	var allocs, moves, admitted float64
	var before, after runtime.MemStats
	for _, spec := range specs {
		f, err := nw.AddFlow(spec)
		if err != nil {
			return fmt.Errorf("admit: register: %w", err)
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := mig.Admit(f)
		if err == nil {
			err = mig.Rollback(res)
			admitted++
			moves += float64(len(res.Moves))
		} else if errors.Is(err, migration.ErrCannotAdmit) || errors.Is(err, netstate.ErrNoFeasiblePath) {
			err = nil
		}
		end := time.Now()
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("admit: %w", err)
		}
		spans.record(0, "migration.admit", 0, 0, start, end)
		allocs += float64(after.Mallocs - before.Mallocs)
		if err := nw.Remove(f); err != nil {
			return fmt.Errorf("admit: remove: %w", err)
		}
	}
	m.set("migration.admit_us", median(spans.durations("migration.admit"))/1e3, "us")
	m.set("migration.admit_allocs", ratio(allocs, float64(len(specs))), "count")
	m.set("migration.migrated_per_admit", ratio(moves, admitted), "count")
	return nil
}

func walKernel(m metrics, spans *spanLog, bs []batch, meta *wal.Meta, body []byte, dir string) error {
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.WithSync(wal.SyncGroup))
	if err != nil {
		return err
	}
	w, err := log.OpenWriter(meta, wal.ID{}, 0)
	if err != nil {
		return err
	}
	var fsyncNs []float64
	w.SetSyncObserver(func(ns int64) { fsyncNs = append(fsyncNs, float64(ns)) })
	var seq int64
	for _, b := range bs {
		start := time.Now()
		for i := range b.Events {
			seq++
			ev := &b.Events[i]
			rec := &wal.Record{Type: wal.TypeEvent, ID: wal.ID{Seq: seq}, Event: &wal.EventRecord{
				EventID: seq, Kind: ev.Kind, Flows: make([]wal.FlowSpec, len(ev.Flows)),
			}}
			for j, f := range ev.Flows {
				rec.Event.Flows[j] = wal.FlowSpec{Src: f.Src, Dst: f.Dst, DemandBps: f.DemandBps, SizeBytes: f.SizeBytes}
			}
			if err := w.Append(rec); err != nil {
				return err
			}
		}
		if err := w.Commit(); err != nil {
			return err
		}
		spans.record(0, "wal.append_commit", 0, 0, start, time.Now())
	}
	for i := 0; i < rotateReps; i++ {
		// Each checkpoint starts a segment named by its sequence number,
		// so every rotation covers one more record.
		seq++
		if err := w.Append(&wal.Record{Type: wal.TypeEvent, ID: wal.ID{Seq: seq}, Event: &wal.EventRecord{EventID: seq}}); err != nil {
			return err
		}
		if err := w.Commit(); err != nil {
			return err
		}
		start := time.Now()
		if w, err = log.Rotate(w, body, wal.ID{Seq: seq}, 0); err != nil {
			return fmt.Errorf("rotate: %w", err)
		}
		spans.record(0, "wal.rotate", 0, 0, start, time.Now())
	}
	if err := w.Close(); err != nil {
		return err
	}
	ac := spans.durations("wal.append_commit")
	m.set("wal.append_commit_us_p50", percentile(ac, 0.5)/1e3, "us")
	m.set("wal.append_commit_us_p99", percentile(ac, 0.99)/1e3, "us")
	m.set("wal.fsync_ms_p99", percentile(fsyncNs, 0.99)/1e6, "ms")
	m.set("wal.rotate_ms", median(spans.durations("wal.rotate"))/1e6, "ms")
	return nil
}
