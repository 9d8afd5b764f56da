package main

import (
	"strconv"
	"sync/atomic"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/ctl"
	"netupdate/internal/sched"
)

// pickCounts accumulates what the timed schedulers of one run decided.
type pickCounts struct {
	picks, evals, offered atomic.Int64
}

// timedScheduler forwards to a policy and records a "sched.pick" span
// around every Pick, counting the Decision's work. It never alters a
// decision.
type timedScheduler struct {
	inner  sched.Scheduler
	spans  *spanLog
	counts *pickCounts
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Pick(q *sched.Queue, planner *core.Planner) (sched.Decision, error) {
	start := time.Now()
	d, err := t.inner.Pick(q, planner)
	end := time.Now()
	var trace uint64
	if err == nil {
		t.counts.picks.Add(1)
		t.counts.evals.Add(int64(d.Evals))
		t.counts.offered.Add(int64(len(d.Opportunistic)))
		trace = uint64(d.Head.ID)
	}
	t.spans.record(0, "sched.pick", trace, 0, start, end)
	return d, err
}

// rngCarrier is the checkpointable-RNG surface the controller's WAL
// checkpoints read off the scheduler.
type rngCarrier interface {
	RNGDraws() int64
	RestoreRNG(int64)
}

// The forwarding halves of the optional scheduler interfaces. Each
// declares only its interface's extra methods, so embedding one next to
// *timedScheduler adds exactly that interface.
type costProber struct{ cp sched.CostProber }

func (c costProber) SetProbes(n int) { c.cp.SetProbes(n) }
func (c costProber) ProbeEngine(p *core.Planner) *core.ProbeEngine {
	return c.cp.ProbeEngine(p)
}

type probeRecorder struct{ pr sched.ProbeRecorder }

func (r probeRecorder) SetRecordProbes(on bool) { r.pr.SetRecordProbes(on) }

type rngForward struct{ rc rngCarrier }

func (r rngForward) RNGDraws() int64        { return r.rc.RNGDraws() }
func (r rngForward) RestoreRNG(draws int64) { r.rc.RestoreRNG(draws) }

// wrapScheduler returns a timed scheduler that satisfies exactly the
// optional interfaces (CostProber, ProbeRecorder, rngCarrier) that s
// satisfies, so the engine probes, records and checkpoints through it
// as it would through s.
func wrapScheduler(s sched.Scheduler, spans *spanLog, counts *pickCounts) sched.Scheduler {
	t := &timedScheduler{inner: s, spans: spans, counts: counts}
	cp, isCP := s.(sched.CostProber)
	pr, isPR := s.(sched.ProbeRecorder)
	rc, isRC := s.(rngCarrier)
	c, p, r := costProber{cp}, probeRecorder{pr}, rngForward{rc}
	switch {
	case isCP && isPR && isRC:
		return struct {
			*timedScheduler
			costProber
			probeRecorder
			rngForward
		}{t, c, p, r}
	case isCP && isPR:
		return struct {
			*timedScheduler
			costProber
			probeRecorder
		}{t, c, p}
	case isCP && isRC:
		return struct {
			*timedScheduler
			costProber
			rngForward
		}{t, c, r}
	case isPR && isRC:
		return struct {
			*timedScheduler
			probeRecorder
			rngForward
		}{t, p, r}
	case isCP:
		return struct {
			*timedScheduler
			costProber
		}{t, c}
	case isPR:
		return struct {
			*timedScheduler
			probeRecorder
		}{t, p}
	case isRC:
		return struct {
			*timedScheduler
			rngForward
		}{t, r}
	}
	return t
}

// registered counts the timed policies registered so far, so every
// traced cluster gets a fresh registry name.
var registered atomic.Int64

// registerTimed registers a P-LMTF builder whose schedulers are timed
// into spans and counts, and returns its name. shard.NewCluster builds
// its schedulers by name, so this is how a cluster's engines get timed.
func registerTimed(spans *spanLog, counts *pickCounts) string {
	name := "bench-timed-" + schedName + "-" + strconv.FormatInt(registered.Add(1), 10)
	sched.Register(name, func(a int, seed int64) sched.Scheduler {
		return wrapScheduler(sched.NewPLMTF(a, seed), spans, counts)
	})
	return name
}

// handleSpans wraps a gateway's request handler: each submit-batch
// request gets a "shard.handle" span whose trace is the batch's sequence
// number on the connection. It relies on one connection driving the
// gateway, so requests never overlap.
type handleSpans struct {
	spans   *spanLog
	batches uint64
	current atomic.Uint64 // span ID of the request being handled
	trace   atomic.Uint64
}

func (h *handleSpans) wrap(next func(ctl.Request, int64) ctl.Response) func(ctl.Request, int64) ctl.Response {
	return func(req ctl.Request, ingestWall int64) ctl.Response {
		if req.Op != ctl.OpSubmitBatch {
			return next(req, ingestWall)
		}
		h.batches++
		id := h.spans.newID()
		h.current.Store(id)
		h.trace.Store(h.batches)
		start := time.Now()
		resp := next(req, ingestWall)
		h.spans.record(id, "shard.handle", h.batches, 0, start, time.Now())
		h.current.Store(0)
		return resp
	}
}

// timedBackend forwards every call to a shard engine unchanged and
// records a "shard.backend" span, child of the gateway request being
// handled, around Do and SubmitBatch.
type timedBackend struct {
	ctl.Backend
	handle *handleSpans
}

func (b *timedBackend) Do(req ctl.Request) ctl.Response {
	start := time.Now()
	resp := b.Backend.Do(req)
	b.handle.spans.record(0, "shard.backend", b.handle.trace.Load(), b.handle.current.Load(), start, time.Now())
	return resp
}

func (b *timedBackend) SubmitBatch(events []ctl.EventSpec) ([]ctl.SubmitVerdict, *ctl.OverloadInfo, error) {
	start := time.Now()
	v, o, err := b.Backend.SubmitBatch(events)
	b.handle.spans.record(0, "shard.backend", b.handle.trace.Load(), b.handle.current.Load(), start, time.Now())
	return v, o, err
}
