package ctl

import (
	"fmt"

	"netupdate/internal/core"
	"netupdate/internal/obs"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
)

// ShardIdentity places a server in a sharded deployment: shard ID (1-
// based) of Count engines. The zero value is the unsharded default.
type ShardIdentity struct {
	ID    int
	Count int
}

// Config collects everything a controller needs at construction: one
// struct, one constructor, optional durability. The zero values of the
// optional fields (Watermark, SpanSink, Shard, Replication, WAL) select
// the unsharded, memory-only defaults.
type Config struct {
	// Planner owns the prepared network; Scheduler orders events; Sim is
	// the virtual timing model. Planner and Scheduler are required.
	Planner   *core.Planner
	Scheduler sched.Scheduler
	Sim       sim.Config

	// Watermark bounds the intake queue: submissions arriving when the
	// update queue holds this many events or more are answered with a
	// typed overload response carrying the queue depth and a retry-after
	// hint. <= 0 keeps DefaultHighWatermark.
	Watermark int

	// SpanSink, when set, receives stage-level latency span records
	// (obs.KindStage), e.g. an obs.JSONLSink over a span file. The server
	// wraps it in a bounded async stage so span emission never blocks the
	// state loop; overflow drops records and counts them in
	// obs_spans_dropped_total. The sink receives records from a
	// background goroutine and is flushed and released by Server.Close,
	// or by New when construction fails.
	SpanSink obs.Sink

	// Shard places the server in a sharded deployment: event IDs stride
	// by Count starting at ID, so every shard mints from a disjoint ID
	// lattice, submit verdicts carry the shard, and the WAL meta records
	// the placement. Values outside 1 <= ID <= Count are ignored.
	Shard ShardIdentity

	// Replication tunes the leader side of WAL replication. Replication
	// itself needs no opt-in: every WAL-backed server accepts follower
	// sessions up to Replication.MaxFollowers.
	Replication ReplicationConfig

	// WAL, when set, attaches a durable log: history is replayed at
	// construction and every admitted mutation is appended before its
	// ack.
	WAL *WALConfig
}

// New builds and starts a controller from one Config. With cfg.WAL set,
// recorded history is recovered before the state loop starts: the
// checkpoint (if any) is thawed into the planner's network and engine,
// the log suffix is replayed through the same admission path live
// requests take, and only then does the server begin serving. The
// returned RecoveryInfo is non-nil only when cfg.WAL was set and
// describes what was replayed.
//
// When the log holds no checkpoint, the planner's network must be in
// the same genesis state the original run started from (same topology,
// same background fill) — the replay folds the full log against it.
func New(cfg Config) (*Server, *RecoveryInfo, error) {
	if cfg.Planner == nil || cfg.Scheduler == nil {
		return nil, nil, fmt.Errorf("ctl: Config needs Planner and Scheduler")
	}
	s := newServer(cfg)
	var info *RecoveryInfo
	if cfg.WAL != nil {
		var err error
		if info, err = s.initWAL(*cfg.WAL, cfg.Replication); err != nil {
			s.abort()
			return nil, nil, err
		}
	}
	s.start()
	return s, info, nil
}
