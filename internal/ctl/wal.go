package ctl

// Durable write-ahead logging and crash recovery for the controller.
//
// The recovery model is a fold: the engine's externally-visible state is
// a pure function of the ordered admitted-input history (submitted
// events, fault injections) because the virtual clock only advances
// inside scheduling rounds and every random draw comes from a counted,
// seeded source. The WAL records that history — each record stamped
// with the logical clock (virtual time, sequence) and the round count
// at admission — and a checkpoint freezes the folded state so the log
// can be truncated. Recovery is: thaw the checkpoint, then re-admit the
// log suffix, stepping the engine to each record's round stamp and
// asserting the virtual clock matches the stamp. Any mismatch is a
// divergence (ErrReplayDiverged): the binary, seed or world differs
// from the one that wrote the log, and continuing would fabricate
// history.

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/fault"
	"netupdate/internal/flow"
	"netupdate/internal/metrics"
	"netupdate/internal/obs"
	"netupdate/internal/repl"
	"netupdate/internal/sim"
	"netupdate/internal/snapshot"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// opCheckpoint is the internal checkpoint operation. It is deliberately
// absent from knownOps: ParseRequest rejects it, so wire clients cannot
// trigger checkpoints; only ForceCheckpoint (and the automatic cadence)
// reaches it, always through the state loop.
const opCheckpoint Op = "wal-checkpoint"

// DefaultCheckpointEvery is the automatic checkpoint cadence: a
// checkpoint is taken after this many WAL records have been appended
// since the last one.
const DefaultCheckpointEvery = 4096

// ErrReplayDiverged reports that replaying the WAL reproduced different
// state than the log records — the binary, seed, topology or scheduler
// differs from the run that wrote the log. Match with errors.Is.
var ErrReplayDiverged = errors.New("ctl: wal replay diverged")

// WALConfig wires a server to an opened write-ahead log.
type WALConfig struct {
	// Log is the opened log directory (wal.Open). Callers open it
	// themselves so they can inspect Checkpoint() before deciding how to
	// build the world: a log with a checkpoint restores its own flows,
	// so background pre-fill must be skipped; a checkpoint-free log
	// replays against the freshly built (filled) genesis network.
	Log *wal.Log
	// Meta describes the world the log belongs to; it is verified
	// against the log's recorded meta so a log is never replayed into a
	// different world. Nil derives a minimal meta from the server.
	Meta *wal.Meta
	// CheckpointEvery is the automatic checkpoint cadence in appended
	// records; 0 means DefaultCheckpointEvery, negative disables
	// automatic checkpoints (ForceCheckpoint still works).
	CheckpointEvery int

	// followerBoot marks a NewFollower recovery: the boot state must be
	// the exact fold at the last applied record, not the quiesced
	// drain, because the leader's subsequent record stamps continue
	// from that fold.
	followerBoot bool
}

// RecoveryInfo reports what WAL recovery rebuilt.
type RecoveryInfo struct {
	// Recovered is true when any state was restored (checkpoint or
	// replayed records).
	Recovered bool
	// CheckpointSeq is the sequence covered by the restored checkpoint
	// (0 when none existed).
	CheckpointSeq int64
	// ReplayedRecords is the number of log records re-admitted.
	ReplayedRecords int
	// LastSeq is the log's last sequence after recovery.
	LastSeq int64
	// Elapsed is the wall-clock time recovery took.
	Elapsed time.Duration
}

// rngCarrier is implemented by schedulers and route selectors whose
// randomness comes from a counted deterministic source.
type rngCarrier interface {
	RNGDraws() int64
	RestoreRNG(int64)
}

// queuedEvent is one not-yet-executed event in the checkpoint, carrying
// the full specs it still needs to execute with.
type queuedEvent struct {
	ID        int64          `json:"id"`
	Kind      string         `json:"kind"`
	ArrivalNs int64          `json:"arrival_ns"`
	Flows     []wal.FlowSpec `json:"flows"`
}

// rngState carries the counted-draw positions of the deterministic
// random sources, so a restored run continues the same stream.
type rngState struct {
	Scheduler int64 `json:"scheduler,omitempty"`
	Selector  int64 `json:"selector,omitempty"`
}

// ingestState carries the ingest counters across a restart.
type ingestState struct {
	Accepted  int64              `json:"accepted"`
	Rejected  int64              `json:"rejected"`
	Retried   int64              `json:"retried"`
	Batches   int64              `json:"batches"`
	BatchSize obs.HistogramState `json:"batch_size"`
}

// simMetricState carries the engine's observation-stream metrics (the
// counters and histograms the tracer accumulates round by round; the
// gauges are recomputed from restored state instead).
type simMetricState struct {
	Rounds        int64 `json:"rounds"`
	EventsDone    int64 `json:"events_done"`
	FlowsAdmitted int64 `json:"flows_admitted"`
	FlowsFailed   int64 `json:"flows_failed"`

	FaultsInjected   int64 `json:"faults_injected"`
	RepairEvents     int64 `json:"repair_events"`
	FlowsDisrupted   int64 `json:"flows_disrupted"`
	InstallRetries   int64 `json:"install_retries"`
	InstallRollbacks int64 `json:"install_rollbacks"`

	ECT             obs.HistogramState `json:"ect"`
	QueuingDelay    obs.HistogramState `json:"queuing_delay"`
	ProbeDirtyLinks obs.HistogramState `json:"probe_dirty_links"`
}

// checkpointDoc is the state document a checkpoint freezes: everything
// needed to rebuild a server whose externally-visible behavior is
// indistinguishable from one that never restarted.
type checkpointDoc struct {
	NextID int64   `json:"next_id"`
	Order  []int64 `json:"order"`

	Queue []queuedEvent         `json:"queue,omitempty"`
	Done  []metrics.EventRecord `json:"done,omitempty"`

	// Collector scalars not covered by Engine.Probe or Done.
	DecisionEvals    int   `json:"decision_evals"`
	PlanTimeNs       int64 `json:"plan_time_ns"`
	MakespanNs       int64 `json:"makespan_ns"`
	FaultsInjected   int   `json:"faults_injected"`
	RepairEvents     int   `json:"repair_events"`
	FlowsDisrupted   int   `json:"flows_disrupted"`
	InstallRetries   int   `json:"install_retries"`
	InstallRollbacks int   `json:"install_rollbacks"`

	Engine  sim.EngineState    `json:"engine"`
	Network *snapshot.Snapshot `json:"network"`
	Ingest  ingestState        `json:"ingest"`
	Sim     simMetricState     `json:"sim"`
	RNG     rngState           `json:"rng"`
}

// initWAL attaches an opened log to a not-yet-started server and
// recovers its history; shared by New and NewFollower. On success the
// server carries a replication hub (leader role by default; NewFollower
// flips it before start). The writer is opened last, so a failure
// leaves no writer open and, on an empty log, no segment file behind.
func (s *Server) initWAL(cfg WALConfig, rc ReplicationConfig) (*RecoveryInfo, error) {
	if cfg.Log == nil {
		return nil, fmt.Errorf("ctl: WALConfig.Log is nil")
	}
	s.walLog = cfg.Log
	s.walMet = obs.NewWALMetrics(s.registry)
	s.ckptEvery = cfg.CheckpointEvery
	if s.ckptEvery == 0 {
		s.ckptEvery = DefaultCheckpointEvery
	}
	m := wal.Meta{Format: wal.FormatVersion, Scheduler: s.scheduler, Watermark: s.watermark}
	if cfg.Meta != nil {
		m = *cfg.Meta
	}
	if s.shardID > 0 && m.Shard == 0 {
		// A sharded engine stamps its placement into the log so recovery
		// onto the wrong shard slot (different ID lattice) is refused by
		// the meta check instead of diverging on replay.
		m.Shard = s.shardID
		m.Shards = int(s.idStride)
	}
	meta := &m
	s.walMeta = m
	// Reject a mismatched world before replaying anything into it: a log
	// written under a different scheduler/seed/topology would not merely
	// fail to converge, it would corrupt the recovery with plausible
	// wrong state.
	if lm := cfg.Log.Meta(); lm != nil {
		if err := lm.Check(meta); err != nil {
			return nil, err
		}
	}

	started := time.Now()
	info := &RecoveryInfo{}
	afterSeq := int64(0)
	if ckpt := cfg.Log.Checkpoint(); ckpt != nil {
		if err := s.restoreCheckpoint(ckpt); err != nil {
			return nil, err
		}
		afterSeq = ckpt.ID.Seq
		info.Recovered = true
		info.CheckpointSeq = ckpt.ID.Seq
		s.walMet.CheckpointSeq.Set(ckpt.ID.Seq)
	}
	ri, err := cfg.Log.Replay(afterSeq, s.replayRecord)
	if err != nil {
		return nil, err
	}
	info.ReplayedRecords = ri.Records
	info.Recovered = info.Recovered || ri.Records > 0
	info.LastSeq = cfg.Log.LastSeq()
	s.walMet.Replayed.Add(int64(ri.Records))

	// Drain the replayed backlog before serving. Replay only steps the
	// engine to the last record's round stamp, which can leave admitted
	// but unexecuted work behind — a repair event minted by a replayed
	// fault, or a checkpointed queue. Running the cascade dry here makes
	// the boot state a pure function of the committed history; otherwise
	// the leftover rounds race against the first post-recovery request
	// and the admission interleaving (hence the round structure) becomes
	// nondeterministic.
	//
	// A follower boot must NOT drain: the leader stamps later records
	// against its own mid-cascade rounds, so the fold has to resume from
	// exactly the replayed state. The drain happens at promotion instead.
	if !cfg.followerBoot {
		for {
			worked, err := s.engine.Step()
			if err != nil {
				return nil, fmt.Errorf("ctl: draining replayed backlog: %w", err)
			}
			if !worked {
				break
			}
		}
	}

	// Refresh the instantaneous gauges from the recovered state: a
	// scrape between recovery and the first round must already see the
	// continuous world, not zeros.
	s.refreshGauges()

	// Every WAL-backed server carries the replication hub: it accepts
	// follower sessions (up to its configured cap) and its persisted
	// term fences split-brain after a promotion elsewhere.
	term, err := repl.LoadTerm(cfg.Log.Dir())
	if err != nil {
		return nil, err
	}

	w, err := cfg.Log.OpenWriter(meta,
		wal.ID{VT: int64(s.engine.Clock()), Seq: cfg.Log.LastSeq()}, s.engine.Rounds())
	if err != nil {
		return nil, err
	}
	s.wal = w
	s.attachFsyncObserver()
	s.walSeq = w.LastSeq()
	s.walMet.LastSeq.Set(s.walSeq)

	info.Elapsed = time.Since(started)
	s.walMet.RecoveryMs.Set(info.Elapsed.Milliseconds())

	s.repl = newReplState(s, term, rc)
	s.repl.wg.Add(1)
	go s.replHeartbeats()
	return info, nil
}

// ForceCheckpoint takes a checkpoint now (blocking until the state loop
// has taken it) and truncates the log behind it.
func (s *Server) ForceCheckpoint() error {
	resp := s.dispatch(Request{Op: opCheckpoint})
	if !resp.OK {
		return errors.New(resp.Error)
	}
	return nil
}

// walAppend appends one record, assigning it the next sequence number.
// State loop only. A failed append is fail-stop: the record may be
// half-written and every later ack would rest on it.
func (s *Server) walAppend(rec *wal.Record) {
	rec.ID.Seq = s.walSeq + 1
	_, b0, _, _ := s.wal.Stats()
	if err := s.wal.Append(rec); err != nil {
		panic(fmt.Sprintf("ctl: wal append: %v", err))
	}
	s.walSeq = rec.ID.Seq
	s.sinceCkpt++
	_, b1, _, _ := s.wal.Stats()
	s.walMet.Appends.Inc()
	s.walMet.Bytes.Add(b1 - b0)
	s.walMet.LastSeq.Set(s.walSeq)
	// Stage the record's frame for replication; it is published only at
	// commit, so a follower never holds records the leader could lose.
	if s.repl != nil {
		s.repl.stage(rec)
	}
}

// walCommit makes every appended record durable per the sync policy.
// Called before replies are released (append-before-ack). No-op without
// a WAL or with nothing appended since the last commit.
func (s *Server) walCommit() {
	if s.wal == nil {
		return
	}
	_, _, c0, y0 := s.wal.Stats()
	if err := s.wal.Commit(); err != nil {
		panic(fmt.Sprintf("ctl: wal commit: %v", err))
	}
	_, _, c1, y1 := s.wal.Stats()
	s.walMet.Commits.Add(c1 - c0)
	s.walMet.Syncs.Add(y1 - y0)
	// Group replication rides the group commit: publish what this commit
	// made durable, then hold the reply release until every synced
	// follower acked it (or timed out and was dropped).
	if r := s.repl; r != nil && r.role == roleLeader {
		r.publish()
		r.gate(s.walSeq)
	}
}

// maybeCheckpoint runs the automatic checkpoint cadence (state loop
// only, between command batches).
func (s *Server) maybeCheckpoint() {
	if s.wal == nil || s.ckptEvery <= 0 || s.sinceCkpt < s.ckptEvery {
		return
	}
	// A follower checkpoints only on the leader's announcement, keeping
	// both logs rotating at identical sequences.
	if r := s.repl; r != nil && r.role == roleFollower {
		return
	}
	if err := s.doCheckpoint(); err != nil {
		panic(fmt.Sprintf("ctl: checkpoint: %v", err))
	}
}

// doCheckpoint freezes the folded state, rotates the log onto a fresh
// segment based at the current sequence, and purges covered segments.
// State loop only.
func (s *Server) doCheckpoint() error {
	state, err := json.Marshal(s.buildCheckpoint())
	if err != nil {
		return err
	}
	id := wal.ID{VT: int64(s.engine.Clock()), Seq: s.walSeq}
	w, err := s.walLog.Rotate(s.wal, state, id, s.engine.Rounds())
	if err != nil {
		// Rotate closed the old writer; the server cannot append anymore.
		// Surface the error — the next append will be fail-stop.
		return err
	}
	s.wal = w
	s.attachFsyncObserver()
	s.sinceCkpt = 0
	s.walMet.Checkpoints.Inc()
	s.walMet.CheckpointSeq.Set(id.Seq)
	if r := s.repl; r != nil && r.role == roleLeader && r.nFollowers.Load() > 0 {
		r.announce(id, s.engine.Rounds())
	}
	return nil
}

// attachFsyncObserver routes the writer's per-fsync wall durations into
// the fsync latency histogram. Re-attached after every segment rotation
// (Rotate returns a fresh writer).
func (s *Server) attachFsyncObserver() {
	s.wal.SetSyncObserver(func(ns int64) { s.lat.WALFsync.Observe(ns) })
}

// buildCheckpoint captures the full controller state (state loop only).
func (s *Server) buildCheckpoint() *checkpointDoc {
	net := s.planner.Network()
	col := s.engine.Collector()
	met := s.engine.Tracer().Metrics()
	doc := &checkpointDoc{
		NextID:  s.nextID,
		Order:   append([]int64(nil), s.order...),
		Done:    col.Records(),
		Engine:  s.engine.ExportState(),
		Network: snapshot.Capture(net),

		DecisionEvals:    col.DecisionEvals,
		PlanTimeNs:       int64(col.PlanTime),
		MakespanNs:       int64(col.Makespan),
		FaultsInjected:   col.FaultsInjected,
		RepairEvents:     col.RepairEvents,
		FlowsDisrupted:   col.FlowsDisrupted,
		InstallRetries:   col.InstallRetries,
		InstallRollbacks: col.InstallRollbacks,

		Ingest: ingestState{
			Accepted:  s.ingest.Accepted.Value(),
			Rejected:  s.ingest.Rejected.Value(),
			Retried:   s.ingest.Retried.Value(),
			Batches:   s.ingest.Batches.Value(),
			BatchSize: s.ingest.BatchSize.State(),
		},
		Sim: simMetricState{
			Rounds:        met.Rounds.Value(),
			EventsDone:    met.EventsDone.Value(),
			FlowsAdmitted: met.FlowsAdmitted.Value(),
			FlowsFailed:   met.FlowsFailed.Value(),

			FaultsInjected:   met.FaultsInjected.Value(),
			RepairEvents:     met.RepairEvents.Value(),
			FlowsDisrupted:   met.FlowsDisrupted.Value(),
			InstallRetries:   met.InstallRetries.Value(),
			InstallRollbacks: met.InstallRollbacks.Value(),

			ECT:             met.ECT.State(),
			QueuingDelay:    met.QueuingDelay.State(),
			ProbeDirtyLinks: met.ProbeDirtyLinks.State(),
		},
	}
	for _, ev := range s.engine.QueueEvents() {
		qe := queuedEvent{
			ID:        int64(ev.ID),
			Kind:      ev.Kind,
			ArrivalNs: int64(ev.Arrival),
			Flows:     make([]wal.FlowSpec, len(ev.Specs)),
		}
		for i, sp := range ev.Specs {
			qe.Flows[i] = wal.FlowSpec{
				Src: int(sp.Src), Dst: int(sp.Dst),
				DemandBps: int64(sp.Demand), SizeBytes: sp.Size,
			}
		}
		doc.Queue = append(doc.Queue, qe)
	}
	if rc, ok := s.sched.(rngCarrier); ok {
		doc.RNG.Scheduler = rc.RNGDraws()
	}
	if rc, ok := net.Selector().(rngCarrier); ok {
		doc.RNG.Selector = rc.RNGDraws()
	}
	return doc
}

// restoreCheckpoint thaws a checkpoint into the freshly built server:
// network flows, engine run state, event table, queue, metrics and RNG
// positions. Runs before the state loop starts.
func (s *Server) restoreCheckpoint(ckpt *wal.Checkpoint) error {
	if ckpt.Format != wal.FormatVersion {
		return fmt.Errorf("ctl: checkpoint format %d, want %d", ckpt.Format, wal.FormatVersion)
	}
	var doc checkpointDoc
	if err := json.Unmarshal(ckpt.State, &doc); err != nil {
		return fmt.Errorf("ctl: decoding checkpoint: %w", err)
	}
	if doc.Engine.ClockNs != ckpt.ID.VT || doc.Engine.Rounds != ckpt.Rounds {
		return fmt.Errorf("%w: checkpoint stamped (vt=%d, rounds=%d) but carries (vt=%d, rounds=%d)",
			ErrReplayDiverged, ckpt.ID.VT, ckpt.Rounds, doc.Engine.ClockNs, doc.Engine.Rounds)
	}
	net := s.planner.Network()
	flows, err := snapshot.Populate(net, doc.Network)
	if err != nil {
		return fmt.Errorf("ctl: restoring network: %w", err)
	}
	if err := s.engine.RestoreState(doc.Engine, flows); err != nil {
		return err
	}

	// Event table: queued events are rebuilt whole (they still need to
	// execute); done events are rebuilt as shells carrying exactly the
	// fields status/results render.
	s.nextID = doc.NextID
	s.order = append(s.order[:0], doc.Order...)
	queueEvs := make([]*core.Event, len(doc.Queue))
	for i, qe := range doc.Queue {
		specs := make([]flow.Spec, len(qe.Flows))
		for j, f := range qe.Flows {
			specs[j] = flow.Spec{
				Src:    topology.NodeID(f.Src),
				Dst:    topology.NodeID(f.Dst),
				Demand: topology.Bandwidth(f.DemandBps),
				Size:   f.SizeBytes,
			}
		}
		ev := core.NewEvent(flow.EventID(qe.ID), qe.Kind, time.Duration(qe.ArrivalNs), specs)
		queueEvs[i] = ev
		s.events[qe.ID] = ev
	}
	s.engine.RestoreQueue(queueEvs)
	for _, r := range doc.Done {
		s.events[int64(r.Event)] = &core.Event{
			ID:          r.Event,
			Kind:        r.Kind,
			Specs:       make([]flow.Spec, r.Flows+r.Failed),
			Arrival:     r.Arrival,
			Start:       r.Start,
			Completion:  r.Completion,
			Started:     true,
			Done:        true,
			CostAtExec:  r.Cost,
			Flows:       make([]*flow.Flow, r.Flows),
			FailedSpecs: make([]flow.Spec, r.Failed),
		}
	}

	col := s.engine.Collector()
	col.Restore(doc.Done)
	col.DecisionEvals = doc.DecisionEvals
	col.PlanTime = time.Duration(doc.PlanTimeNs)
	col.Makespan = time.Duration(doc.MakespanNs)
	col.FaultsInjected = doc.FaultsInjected
	col.RepairEvents = doc.RepairEvents
	col.FlowsDisrupted = doc.FlowsDisrupted
	col.InstallRetries = doc.InstallRetries
	col.InstallRollbacks = doc.InstallRollbacks

	s.ingest.Accepted.Add(doc.Ingest.Accepted)
	s.ingest.Rejected.Add(doc.Ingest.Rejected)
	s.ingest.Retried.Add(doc.Ingest.Retried)
	s.ingest.Batches.Add(doc.Ingest.Batches)
	s.ingest.BatchSize.Restore(doc.Ingest.BatchSize)

	met := s.engine.Tracer().Metrics()
	met.Rounds.Add(doc.Sim.Rounds)
	met.EventsDone.Add(doc.Sim.EventsDone)
	met.FlowsAdmitted.Add(doc.Sim.FlowsAdmitted)
	met.FlowsFailed.Add(doc.Sim.FlowsFailed)
	met.FaultsInjected.Add(doc.Sim.FaultsInjected)
	met.RepairEvents.Add(doc.Sim.RepairEvents)
	met.FlowsDisrupted.Add(doc.Sim.FlowsDisrupted)
	met.InstallRetries.Add(doc.Sim.InstallRetries)
	met.InstallRollbacks.Add(doc.Sim.InstallRollbacks)
	met.ECT.Restore(doc.Sim.ECT)
	met.QueuingDelay.Restore(doc.Sim.QueuingDelay)
	met.ProbeDirtyLinks.Restore(doc.Sim.ProbeDirtyLinks)

	if rc, ok := s.sched.(rngCarrier); ok {
		rc.RestoreRNG(doc.RNG.Scheduler)
	}
	if rc, ok := net.Selector().(rngCarrier); ok {
		rc.RestoreRNG(doc.RNG.Selector)
	}
	return nil
}

// refreshGauges recomputes the instantaneous gauges from current state.
func (s *Server) refreshGauges() {
	met := s.engine.Tracer().Metrics()
	col := s.engine.Collector()
	met.QueueDepth.Set(int64(s.engine.QueueLen()))
	met.VirtualClock.Set(int64(s.engine.Clock()))
	met.Utilization.Set(s.planner.Network().Utilization())
	met.LinksDown.Set(int64(s.engine.LinksDown()))
	met.SetProbeStats(int64(col.ProbeCacheHits), int64(col.ProbeCacheMisses))
	met.SetProbeDetail(int64(col.ProbeCold), int64(col.ProbeIncremental))
}

// replayRecord re-admits one log record during recovery: step the
// engine to the record's round stamp, check the logical clock, and take
// the same admission path a live request would — the fold that defines
// what the state must be.
func (s *Server) replayRecord(rec *wal.Record) error {
	if err := s.stepTo(rec.Rounds); err != nil {
		return err
	}
	if vt := int64(s.engine.Clock()); vt != rec.ID.VT {
		return fmt.Errorf("%w: record seq %d stamped vt=%d, engine at vt=%d",
			ErrReplayDiverged, rec.ID.Seq, rec.ID.VT, vt)
	}
	switch rec.Type {
	case wal.TypeEvent:
		e := rec.Event
		if e.EventID != s.nextID {
			return fmt.Errorf("%w: record seq %d admits event %d, expected %d",
				ErrReplayDiverged, rec.ID.Seq, e.EventID, s.nextID)
		}
		specs := make([]flow.Spec, len(e.Flows))
		for i, f := range e.Flows {
			specs[i] = flow.Spec{
				Src:    topology.NodeID(f.Src),
				Dst:    topology.NodeID(f.Dst),
				Demand: topology.Bandwidth(f.DemandBps),
				Size:   f.SizeBytes,
			}
		}
		ev := core.NewEvent(flow.EventID(e.EventID), e.Kind, s.engine.Clock(), specs)
		s.events[e.EventID] = ev
		s.order = append(s.order, e.EventID)
		s.engine.Enqueue(ev)
		s.nextID += s.idStride
		s.ingest.Accepted.Inc()
		if e.Retry {
			s.ingest.Retried.Inc()
		}
		if e.BatchSize > 0 {
			s.ingest.Batches.Inc()
			s.ingest.BatchSize.Observe(int64(e.BatchSize))
		}
		return nil

	case wal.TypeFault:
		f := rec.Fault
		out, err := s.engine.InjectFault(fault.Injection{
			At:     s.engine.Clock(),
			Action: fault.Action(f.Action),
			Link:   f.Link,
			Node:   f.Node,
			Event:  f.Event,
			Times:  f.Times,
		})
		if err != nil {
			return fmt.Errorf("%w: record seq %d fault %q failed: %v",
				ErrReplayDiverged, rec.ID.Seq, f.Action, err)
		}
		var repairID int64
		if ev := out.RepairEvent; ev != nil {
			repairID = int64(ev.ID)
			s.events[repairID] = ev
			s.order = append(s.order, repairID)
		}
		if repairID != f.RepairEventID {
			return fmt.Errorf("%w: record seq %d fault minted repair event %d, log recorded %d",
				ErrReplayDiverged, rec.ID.Seq, repairID, f.RepairEventID)
		}
		return nil

	default:
		return fmt.Errorf("%w: record seq %d has unexpected type %d",
			ErrReplayDiverged, rec.ID.Seq, rec.Type)
	}
}

// stepTo runs scheduling rounds until the engine reaches the target
// round count. A stall short of the target means the replayed world has
// less work than the recorded one did — a divergence.
func (s *Server) stepTo(rounds int64) error {
	for s.engine.Rounds() < rounds {
		worked, err := s.engine.Step()
		if err != nil {
			return fmt.Errorf("ctl: replay round: %w", err)
		}
		if !worked {
			return fmt.Errorf("%w: engine stalled at round %d short of recorded round %d",
				ErrReplayDiverged, s.engine.Rounds(), rounds)
		}
	}
	return nil
}
