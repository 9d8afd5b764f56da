package ctl

import (
	"fmt"
	"net"
	"sync"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/fault"
	"netupdate/internal/flow"
	"netupdate/internal/obs"
	"netupdate/internal/repl"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/snapshot"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// Server owns live network state and schedules submitted update events.
// All state is confined to one goroutine (the state loop); connection
// handlers communicate with it through a command channel, so the sim
// engine and network never see concurrent access.
type Server struct {
	engine    *sim.Engine
	planner   *core.Planner
	sched     sched.Scheduler
	scheduler string
	numNodes  int

	// Telemetry: every server carries a ring-buffered tracer (OpTrace
	// reads it in the state loop) and a metrics registry whose values are
	// atomics, safe to scrape over HTTP while the state loop runs.
	registry *obs.Registry
	ring     *obs.RingSink
	ingest   *obs.IngestMetrics

	// Latency span pipeline: the recorder is state-loop confined (like
	// the engine it instruments); stage records go out through a bounded
	// async sink so a slow span consumer can never backpressure the loop.
	// lat and spans always exist — histograms feed /metrics and Stats
	// even when no span sink is configured.
	lat       *obs.LatencyMetrics
	spans     *obs.SpanRecorder
	spanAsync *obs.AsyncSink // nil without a configured span sink

	// watermark bounds the update queue: submissions arriving at or past
	// it are rejected with a typed overload response instead of queued.
	watermark int

	// Event table: every event the server ever admitted (or minted from a
	// fault), in admission order. State-loop confined once the loop runs;
	// fields (not loop locals) so WAL recovery can seed them beforehand.
	events map[int64]*core.Event
	order  []int64
	nextID int64

	// Durable write-ahead log (nil when disabled). State-loop confined
	// once the loop runs: stageSubmit appends admitted events, flush
	// group-commits before replies go out (append-before-ack), and the
	// checkpoint cadence rotates segments. A WAL write failure is
	// fail-stop: continuing without durability would silently break the
	// recovery contract, so the state loop panics instead.
	walLog    *wal.Log
	wal       *wal.Writer
	walMeta   wal.Meta
	walSeq    int64
	ckptEvery int
	sinceCkpt int
	walMet    *obs.WALMetrics

	// WAL replication hub (nil without a WAL). Role and term are state-
	// loop confined; see repl.go for the full confinement story.
	repl *replState

	// shardID and idStride place this engine in a sharded deployment:
	// shard s of N mints event IDs s, s+N, s+2N, … so IDs are globally
	// unique across the fleet and a gateway can route status lookups by
	// (id-1) mod N. Unsharded servers keep shardID 0, stride 1 — the
	// historical ID sequence.
	shardID  int
	idStride int64

	// wire owns the accept loop, open-connection set and codec handling;
	// closing mirrors its shutdown channel for the state loop and the
	// replication goroutines.
	wire    *WireServer
	closing <-chan struct{}

	cmds chan command
	// loopStop tells the state loop's shutdown drain that every
	// connection handler has exited, so no further command can arrive
	// and the loop may return. Closed by Close after the wire drains.
	loopStop chan struct{}
	loop     sync.WaitGroup // state loop

	mu     sync.Mutex
	closed bool
}

// command is one request routed to the state loop.
type command struct {
	req Request
	// repl, when set, marks an internal replication command instead of
	// a wire request (req is ignored); the answer rides the Response's
	// unexported repl field.
	repl *replCmd
	// ingestWall is the server wall clock when the request was decoded
	// off the wire (span pipeline's ingest stamp).
	ingestWall int64
	reply      chan Response
}

// traceRingSize bounds the server's trace ring: enough for a few
// thousand rounds of history without unbounded growth.
const traceRingSize = 4096

// DefaultHighWatermark is the intake bound used when Config.Watermark
// is <= 0: past this many queued events, submissions are rejected with an
// overload response instead of growing the queue without bound.
const DefaultHighWatermark = 4096

// cmdBacklog is the command channel's buffer: large enough that a burst
// of connection handlers lands in one state-loop wakeup (and is admitted
// into the scheduler queue in bulk) instead of costing one wakeup each.
const cmdBacklog = 1024

// spanSinkDepth bounds the async span sink's ring: deep enough to absorb
// a burst of stage records while the consumer flushes, small enough that
// a stuck consumer costs bounded memory (overflow drops and counts).
const spanSinkDepth = 8192

// newServer builds a server without starting its state loop, so WAL
// recovery can replay history into the engine while it is still
// single-threaded.
func newServer(cfg Config) *Server {
	s := &Server{
		engine:    sim.NewEngine(cfg.Planner, cfg.Scheduler, cfg.Sim),
		planner:   cfg.Planner,
		sched:     cfg.Scheduler,
		scheduler: cfg.Scheduler.Name(),
		numNodes:  cfg.Planner.Network().Graph().NumNodes(),
		registry:  obs.NewRegistry(),
		ring:      obs.NewRingSink(traceRingSize),
		watermark: DefaultHighWatermark,
		events:    make(map[int64]*core.Event),
		nextID:    1,
		idStride:  1,
		cmds:      make(chan command, cmdBacklog),
		loopStop:  make(chan struct{}),
	}
	if cfg.Watermark > 0 {
		s.watermark = cfg.Watermark
	}
	if sh := cfg.Shard; sh.ID >= 1 && sh.ID <= sh.Count {
		s.shardID = sh.ID
		s.idStride = int64(sh.Count)
		s.nextID = int64(sh.ID)
	}
	s.ingest = obs.NewIngestMetrics(s.registry)
	s.ingest.Watermark.Set(int64(s.watermark))
	s.wire = &WireServer{
		Handle:      s.dispatchAt,
		Stream:      s.serveRepl,
		StreamMagic: repl.StreamMagic,
		FramesV1:    s.ingest.FramesV1,
		FramesV2:    s.ingest.FramesV2,
		CodecConns:  s.ingest.CodecV2Conns,
	}
	s.closing = s.wire.Closing()
	// Attach the tracer before the state loop starts so the engine never
	// sees a concurrent SetTracer.
	s.engine.SetTracer(obs.NewTracer(s.ring, obs.NewSimMetrics(s.registry)))
	s.lat = obs.NewLatencyMetrics(s.registry)
	var spanOut obs.Sink
	if cfg.SpanSink != nil {
		s.spanAsync = obs.NewAsyncSink(cfg.SpanSink, spanSinkDepth, s.lat.SpansDropped)
		spanOut = s.spanAsync
	}
	s.spans = obs.NewSpanRecorder(spanOut, s.lat)
	return s
}

// abort releases what newServer started when construction fails
// before start: the async span sink's drain goroutine, after flushing
// the inner sink.
func (s *Server) abort() {
	if s.spanAsync != nil {
		_ = s.spanAsync.Close()
	}
}

// start launches the state loop. Call exactly once, after any recovery.
// The span recorder is attached here — after WAL replay — so replayed
// history re-executes without emitting span records or latency samples.
func (s *Server) start() {
	s.engine.SetSpans(s.spans)
	s.loop.Add(1)
	go s.stateLoop()
}

// Registry exposes the server's metric registry, e.g. for mounting
// obs.Handler on an HTTP listener. All registered values are atomics, so
// scraping is safe while the server runs.
func (s *Server) Registry() *obs.Registry { return s.registry }

// Serve accepts connections on l until Close. It returns ErrServerClosed
// after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	return s.wire.Serve(l)
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	return s.wire.ListenAndServe(addr)
}

// Close stops accepting, closes open connections, and waits for the state
// loop and all handlers to exit. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	// Handlers may still have commands buffered in s.cmds; the state loop
	// keeps answering them (with ErrServerClosed) until every handler has
	// exited — wire.Close waits for that. Only then is it safe to let the
	// loop return: afterwards nobody is left to send.
	firstErr := s.wire.Close()
	// Replication goroutines (the follower stream, the heartbeater) also
	// send commands, so they too must be gone before the loop may stop.
	if s.repl != nil {
		s.repl.stopFollowing()
		s.repl.wg.Wait()
	}
	close(s.loopStop)
	s.loop.Wait()
	// The state loop has exited; flush and close the WAL so everything
	// appended is durable before the process goes away.
	if s.wal != nil {
		if err := s.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Drain and release the span channel: nothing emits anymore, so Close
	// delivers every buffered stage record and flushes the inner sink.
	if s.spanAsync != nil {
		if err := s.spanAsync.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// dispatch routes a request to the state loop and waits for the answer.
func (s *Server) dispatch(req Request) Response {
	return s.dispatchAt(req, time.Now().UnixNano())
}

// dispatchAt is dispatch with an explicit ingest wall stamp (the
// WireServer stamps requests as they come off the wire).
func (s *Server) dispatchAt(req Request, ingestWall int64) Response {
	// Fast-fail once shutdown has begun, so new requests don't land in
	// the command buffer just to be refused by the shutdown drain.
	select {
	case <-s.closing:
		return Response{OK: false, Error: ErrServerClosed.Error()}
	default:
	}
	cmd := command{req: req, ingestWall: ingestWall, reply: make(chan Response, 1)}
	select {
	case s.cmds <- cmd:
		// A send that races shutdown is still answered: the state loop
		// drains s.cmds until all handlers (including this one) exit.
		return <-cmd.reply
	case <-s.closing:
		return Response{OK: false, Error: ErrServerClosed.Error()}
	}
}

// stateLoop owns the engine, queue and event table. It interleaves command
// processing with scheduling rounds: whenever the queue is non-empty it
// keeps running rounds, checking for new commands between rounds. Each
// wakeup drains the whole command backlog so a burst of submissions is
// admitted into the scheduler queue in bulk rather than one per wakeup.
func (s *Server) stateLoop() {
	defer s.loop.Done()
	var batch []command

	for {
		batch = batch[:0]
		// Block for work when idle; poll between rounds otherwise. A
		// following replica blocks even with a non-empty queue: its
		// engine may only advance through the replicated fold
		// (replayRecord steps to each record's round stamp), and
		// free-running rounds here would push the clock past the next
		// record's admission stamp and diverge the fold.
		if s.engine.QueueLen() == 0 || s.replFolding() {
			select {
			case cmd := <-s.cmds:
				batch = append(batch, cmd)
			case <-s.closing:
				s.drainOnClose()
				return
			}
		} else {
			select {
			case cmd := <-s.cmds:
				batch = append(batch, cmd)
			case <-s.closing:
				s.drainOnClose()
				return
			default:
				if _, err := s.engine.Step(); err != nil {
					// An executing event hit a hard error (invalid spec got
					// through validation, ledger bug): surface it loudly
					// rather than dying silently.
					panic(fmt.Sprintf("ctl: scheduling round: %v", err))
				}
				continue
			}
		}
		// Drain whatever else is already queued. No closing case here:
		// every drained command has a handler blocked on its reply, so we
		// must answer them all before the loop can exit.
		for draining := true; draining; {
			select {
			case cmd := <-s.cmds:
				batch = append(batch, cmd)
			default:
				draining = false
			}
		}
		s.handleBatch(batch)
		s.maybeCheckpoint()
	}
}

// drainOnClose answers every command still buffered — or sent while the
// shutdown races dispatch — with ErrServerClosed, returning only once
// Close has confirmed (via loopStop) that all connection handlers have
// exited. Returning any earlier would strand a buffered command with no
// receiver: its handler would block forever on the reply and Close would
// hang on conns.Wait.
func (s *Server) drainOnClose() {
	for {
		select {
		case cmd := <-s.cmds:
			cmd.reply <- Response{OK: false, Error: ErrServerClosed.Error()}
		case <-s.loopStop:
			return
		}
	}
}

// handleBatch processes one drained command batch (state loop only).
// Consecutive submissions are staged — IDs assigned, overload policy
// applied, replies computed — and admitted into the engine through one
// EnqueueBatch before any non-submit command observes the queue, and
// again at batch end. Replies for staged submissions are withheld until
// their events are actually enqueued, so a client that got an OK can
// immediately query the event's status.
func (s *Server) handleBatch(batch []command) {
	var staged []*core.Event
	var pending []command
	var replies []Response
	flush := func() {
		s.engine.EnqueueBatch(staged)
		if len(staged) > 0 {
			// One wall stamp per flush: the whole staged batch entered the
			// queue in one EnqueueBatch, so its events share an admit time.
			wall := time.Now().UnixNano()
			for _, ev := range staged {
				s.spans.Admitted(int64(ev.ID), wall, int64(ev.Arrival))
			}
		}
		// Append-before-ack: the WAL records for every staged admission
		// must be durable (per the sync policy) before any OK goes out.
		s.walCommit()
		if s.wal != nil && len(staged) > 0 {
			wall := time.Now().UnixNano()
			for _, ev := range staged {
				s.spans.WALCommitted(int64(ev.ID), wall, int64(ev.Arrival))
			}
		}
		staged = staged[:0]
		for i, cmd := range pending {
			cmd.reply <- replies[i]
		}
		pending, replies = pending[:0], replies[:0]
	}
	for _, cmd := range batch {
		if cmd.repl != nil {
			// Replication commands see a flushed sequence point: every
			// frame ≤ walSeq committed and published, nothing staged.
			flush()
			cmd.reply <- s.handleReplCmd(cmd.repl)
			continue
		}
		switch cmd.req.Op {
		case OpSubmit, OpSubmitBatch:
			pending = append(pending, cmd)
			replies = append(replies, s.stageSubmit(cmd.req, cmd.ingestWall, &staged))
		default:
			flush()
			cmd.reply <- s.handleRequest(cmd.req)
		}
	}
	flush()
}

// stageSubmit validates and stages the events of one submit or
// submit-batch request, applying the watermark policy against the
// effective depth (queued plus already staged). It returns the response
// to send once the staged events have been enqueued. ingestWall is the
// wall clock stamped when the request came off the wire; it opens each
// accepted event's latency span.
func (s *Server) stageSubmit(req Request, ingestWall int64, staged *[]*core.Event) Response {
	// Only the leader admits writes: a follower's state is a fold of the
	// leader's log, and a deposed leader writing would dual-write.
	if r := s.repl; r != nil && r.role != roleLeader {
		return s.notLeaderResponse()
	}
	specs := req.Events
	if req.Op == OpSubmit {
		specs = []EventSpec{*req.Event}
	}
	verdicts := make([]SubmitVerdict, len(specs))
	var overload *OverloadInfo
	var accepted int64
	var recs []wal.Record
	for i := range specs {
		if err := specs[i].Validate(s.numNodes); err != nil {
			verdicts[i] = SubmitVerdict{Error: err.Error()}
			continue
		}
		if depth := s.engine.QueueLen() + len(*staged); depth >= s.watermark {
			if overload == nil {
				overload = s.overloadInfo(depth)
			}
			verdicts[i] = SubmitVerdict{Error: ErrOverloaded.Error(), Overloaded: true}
			s.ingest.Rejected.Inc()
			continue
		}
		id := s.nextID
		s.nextID += s.idStride
		flows := make([]flow.Spec, len(specs[i].Flows))
		for j, f := range specs[i].Flows {
			flows[j] = flow.Spec{
				Src:    topology.NodeID(f.Src),
				Dst:    topology.NodeID(f.Dst),
				Demand: topology.Bandwidth(f.DemandBps),
				Size:   f.SizeBytes,
			}
		}
		kind := specs[i].Kind
		if kind == "" {
			kind = "submitted"
		}
		ev := core.NewEvent(flow.EventID(id), kind, s.engine.Clock(), flows)
		s.events[id] = ev
		s.order = append(s.order, id)
		*staged = append(*staged, ev)
		verdicts[i] = SubmitVerdict{OK: true, EventID: id, Shard: s.shardID}
		accepted++
		var sc obs.SpanContext
		if req.Span != nil {
			sc = *req.Span
		}
		s.spans.Opened(id, sc, ingestWall, int64(ev.Arrival))
		if s.wal != nil {
			rec := wal.Record{
				Type:   wal.TypeEvent,
				ID:     wal.ID{VT: int64(ev.Arrival)},
				Rounds: s.engine.Rounds(),
				Event: &wal.EventRecord{
					EventID:      id,
					Kind:         kind,
					Retry:        req.Retry,
					Flows:        make([]wal.FlowSpec, len(specs[i].Flows)),
					Origin:       sc.Origin,
					SubmitWallNs: sc.SubmitWallNs,
				},
			}
			for j, f := range specs[i].Flows {
				rec.Event.Flows[j] = wal.FlowSpec{
					Src: f.Src, Dst: f.Dst,
					DemandBps: f.DemandBps, SizeBytes: f.SizeBytes,
				}
			}
			recs = append(recs, rec)
		}
	}
	if accepted > 0 {
		s.ingest.Accepted.Add(accepted)
		s.ingest.Batches.Inc()
		s.ingest.BatchSize.Observe(accepted)
		if req.Retry {
			s.ingest.Retried.Add(accepted)
		}
	}
	if len(recs) > 0 {
		// One request, one batch stamp: the first record carries how many
		// events the request admitted, so replay can restore the batch
		// counters. Sequence numbers are assigned at append time — the
		// state loop is the only appender, so the records land contiguous.
		recs[0].Event.BatchSize = int(accepted)
		for i := range recs {
			s.walAppend(&recs[i])
		}
	}
	if req.Op == OpSubmit {
		v := verdicts[0]
		if !v.OK {
			return Response{OK: false, Error: v.Error, Overload: overload}
		}
		return Response{OK: true, EventID: v.EventID}
	}
	// Batch responses are request-level OK even when individual events
	// were rejected; per-event outcomes live in the verdicts.
	return Response{OK: true, Verdicts: verdicts, Overload: overload}
}

// overloadInfo builds the rejection payload for a submission refused at
// the given queue depth. The retry-after hint is deterministic in the
// depth — one millisecond per queued event, clamped to [5ms, 2s] — so a
// deeper queue pushes clients further out.
func (s *Server) overloadInfo(depth int) *OverloadInfo {
	hint := time.Duration(depth) * time.Millisecond
	if hint < 5*time.Millisecond {
		hint = 5 * time.Millisecond
	}
	if hint > 2*time.Second {
		hint = 2 * time.Second
	}
	return &OverloadInfo{
		QueueDepth:   depth,
		Watermark:    s.watermark,
		RetryAfterMs: hint.Milliseconds(),
	}
}

// handleRequest executes one request against the state (state loop only).
func (s *Server) handleRequest(req Request) Response {
	switch req.Op {
	case OpPing:
		// Feature negotiation: clients probe here before enabling binary
		// extensions a pre-feature server would reject.
		return Response{OK: true, Features: []string{FeatureSpanContext, FeatureShardVerdicts}}

	case OpStatus:
		ev, ok := s.events[req.EventID]
		if !ok {
			return Response{OK: true, Status: &EventStatus{EventID: req.EventID, State: StateUnknown}}
		}
		st := statusOf(req.EventID, ev)
		return Response{OK: true, Status: &st}

	case OpResults:
		var results []EventStatus
		for _, id := range s.order {
			if ev := s.events[id]; ev.Done {
				results = append(results, statusOf(id, ev))
			}
		}
		return Response{OK: true, Results: results}

	case OpSnapshot:
		return Response{OK: true, Snapshot: snapshot.Capture(s.planner.Network())}

	case OpStats:
		col := s.engine.Collector()
		net := s.planner.Network()
		met := s.engine.Tracer().Metrics()
		st := &Stats{
			Scheduler:               s.scheduler,
			Utilization:             net.Utilization(),
			FlowsPlaced:             len(net.Registry().Placed()),
			EventsQueued:            s.engine.QueueLen(),
			EventsDone:              col.Len(),
			TotalCostBps:            int64(col.TotalCost()),
			AvgECT:                  col.AvgECT(),
			TailECT:                 col.TailECT(),
			AvgQueuingDelay:         col.AvgQueuingDelay(),
			PlanTime:                col.PlanTime,
			VirtualClock:            s.engine.Clock(),
			ProbeCacheHits:          met.ProbeHits.Value(),
			ProbeCacheMisses:        met.ProbeMisses.Value(),
			ProbeHitRate:            met.ProbeHitRate.Value(),
			ProbeColdPlans:          met.ProbeCold.Value(),
			ProbeIncrementalReplans: met.ProbeIncremental.Value(),
			Rounds:                  met.Rounds.Value(),
			FaultsInjected:          col.FaultsInjected,
			LinksDown:               s.engine.LinksDown(),
			RepairEvents:            col.RepairEvents,
			FlowsDisrupted:          col.FlowsDisrupted,
			InstallRetries:          col.InstallRetries,
			InstallRollbacks:        col.InstallRollbacks,
			IngestWatermark:         s.watermark,
			IngestAccepted:          s.ingest.Accepted.Value(),
			IngestRejected:          s.ingest.Rejected.Value(),
			IngestRetried:           s.ingest.Retried.Value(),
			IngestBatches:           s.ingest.Batches.Value(),
			CodecV2Conns:            s.ingest.CodecV2Conns.Value(),
			FramesV1:                s.ingest.FramesV1.Value(),
			FramesV2:                s.ingest.FramesV2.Value(),
			LatencyE2EP50Ns:         s.lat.E2E.Percentile(50),
			LatencyE2EP95Ns:         s.lat.E2E.Percentile(95),
			LatencyE2EP99Ns:         s.lat.E2E.Percentile(99),
			LatencyE2EP999Ns:        s.lat.E2E.Percentile(99.9),
			LatencyQueueP50Ns:       s.lat.Queue.Percentile(50),
			LatencyQueueP99Ns:       s.lat.Queue.Percentile(99),
			LatencyRoundsP50Ns:      s.lat.Rounds.Percentile(50),
			LatencyRoundsP99Ns:      s.lat.Rounds.Percentile(99),
			SpansDropped:            s.lat.SpansDropped.Value(),
		}
		if s.shardID > 0 {
			st.ShardID = s.shardID
			st.Shards = int(s.idStride)
		}
		if s.walMet != nil {
			st.WALEnabled = true
			st.WALLastSeq = s.walMet.LastSeq.Value()
			st.WALCheckpointSeq = s.walMet.CheckpointSeq.Value()
			st.WALAppends = s.walMet.Appends.Value()
			st.WALCheckpoints = s.walMet.Checkpoints.Value()
			st.WALReplayed = s.walMet.Replayed.Value()
			st.WALRecoveryMs = s.walMet.RecoveryMs.Value()
		}
		if s.wal != nil {
			st.WALSyncPolicy = s.wal.Policy().String()
			st.WALFsyncP50Ns = s.lat.WALFsync.Percentile(50)
			st.WALFsyncP99Ns = s.lat.WALFsync.Percentile(99)
			st.WALFsyncCount = s.lat.WALFsync.Count()
		}
		if r := s.repl; r != nil {
			st.ReplRole = r.role
			st.ReplTerm = r.term
			st.ReplFollowers = int(r.nFollowers.Load())
			st.ReplSynced = int(r.nSynced.Load())
			if r.role == roleFollower {
				st.ReplLagRecords = max(0, r.leaderSeq.Load()-s.walSeq)
			} else {
				st.ReplLagRecords = r.met.LagRecords.Value()
			}
			st.ReplRecordsSent = r.met.RecordsSent.Value()
			st.ReplRecordsApplied = r.met.RecordsApplied.Value()
			st.ReplFollowerDrops = r.met.FollowerDrops.Value()
			st.ReplFailoverMs = r.failoverMs.Load()
		}
		return Response{OK: true, Stats: st}

	case OpTrace:
		return Response{OK: true, Trace: s.ring.Last(req.N)}

	case OpFault:
		if r := s.repl; r != nil && r.role != roleLeader {
			return s.notLeaderResponse()
		}
		out, err := s.engine.InjectFault(fault.Injection{
			At:     s.engine.Clock(),
			Action: fault.Action(req.Fault.Action),
			Link:   req.Fault.Link,
			Node:   req.Fault.Node,
			Event:  req.Fault.Event,
			Times:  req.Fault.Times,
		})
		if err != nil {
			return Response{OK: false, Error: fmt.Sprintf("%v: %v", ErrBadRequest, err)}
		}
		res := &FaultResult{
			Action:        string(out.Action),
			LinksChanged:  out.LinksChanged,
			FlowsAffected: out.FlowsAffected,
			LinksDown:     out.LinksDown,
		}
		// A minted repair event joins the event table so status/results
		// report its recovery like any submitted event.
		if ev := out.RepairEvent; ev != nil {
			id := int64(ev.ID)
			s.events[id] = ev
			s.order = append(s.order, id)
			res.RepairEventID = id
		}
		if s.wal != nil {
			rec := wal.Record{
				Type:   wal.TypeFault,
				ID:     wal.ID{VT: int64(s.engine.Clock())},
				Rounds: s.engine.Rounds(),
				Fault: &wal.FaultRecord{
					Action:        string(out.Action),
					Link:          req.Fault.Link,
					Node:          req.Fault.Node,
					Event:         req.Fault.Event,
					Times:         req.Fault.Times,
					RepairEventID: res.RepairEventID,
				},
			}
			s.walAppend(&rec)
			// Faults reply directly (not through flush), so commit here:
			// the injection already mutated live state and must survive a
			// crash that follows this ack.
			s.walCommit()
		}
		return Response{OK: true, Fault: res}

	case OpReplStatus:
		if s.repl == nil {
			return Response{OK: false, Error: "ctl: replication requires a WAL"}
		}
		return Response{OK: true, Repl: s.replInfo()}

	case OpReplPromote:
		return s.handlePromote()

	case opCheckpoint:
		if s.wal == nil {
			return Response{OK: false, Error: "ctl: WAL disabled"}
		}
		if err := s.doCheckpoint(); err != nil {
			return Response{OK: false, Error: fmt.Sprintf("ctl: checkpoint: %v", err)}
		}
		return Response{OK: true, EventID: s.walSeq}

	default:
		return Response{OK: false, Error: fmt.Sprintf("%v: unknown op %q", ErrBadRequest, req.Op)}
	}
}

// statusOf renders an event's current status.
func statusOf(id int64, ev *core.Event) EventStatus {
	st := EventStatus{
		EventID: id,
		State:   StateQueued,
		Kind:    ev.Kind,
		Flows:   ev.NumFlows(),
	}
	if ev.Done {
		st.State = StateDone
		st.Admitted = len(ev.Flows)
		st.Failed = len(ev.FailedSpecs)
		st.CostBps = int64(ev.CostAtExec)
		st.QueuingDelay = ev.QueuingDelay()
		st.ECT = ev.ECT()
	}
	return st
}
