// Package world builds the controller's world: a k-ary fat-tree and
// the network state over it, optional per-switch rule tables, a
// Yahoo-like background fill to a target utilization, and the planner
// that owns the result. The single-engine daemon (leader and follower),
// the load generator's selfhost controller and every shard slot build
// through it, and derive the WAL meta of the world from the same
// Config, so a log written by one is accepted by any other configured
// alike.
package world

import (
	"errors"
	"fmt"

	"netupdate/internal/core"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/rules"
	"netupdate/internal/sched"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
	"netupdate/internal/wal"
)

// NoTables is the Config.Tables value that attaches no rule tables.
const NoTables = -1

// Config is everything that decides a daemon's world and what its WAL
// records about it.
type Config struct {
	K    int     // fat-tree arity
	Util float64 // background utilization target; <= 0 skips the fill
	// Seed seeds the background generator, the route selector (Seed+7)
	// and the scheduler.
	Seed int64
	// Tables is the per-switch rule-table capacity (0 = unlimited);
	// any negative value, such as NoTables, attaches none.
	Tables int
	// Scheduler and Alpha name the scheduling policy (see sched.New).
	Scheduler string
	Alpha     int
	// Watermark is the server's intake bound, recorded in the meta.
	Watermark int
}

// World is a prepared network and the planner that owns it.
type World struct {
	FT      *topology.FatTree
	Net     *netstate.Network
	Planner *core.Planner
}

// Build builds cfg's world: Fabric, then Fill over every host toward
// cfg.Util with cfg.Seed. log may be nil; see Fill for how it is used.
func Build(cfg Config, log *wal.Log) (*World, error) {
	w, err := Fabric(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Fill(cfg.Seed, w.FT.Hosts(), cfg.Util, log); err != nil {
		return nil, err
	}
	return w, nil
}

// Fabric builds cfg's world before any background traffic: the fat-tree
// at full capacity, the network state over it with rule tables attached
// when cfg.Tables >= 0, and its planner. Callers may change link
// capacities before filling.
func Fabric(cfg Config) (*World, error) {
	ft, err := topology.NewFatTree(cfg.K, topology.Gbps)
	if err != nil {
		return nil, err
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(cfg.Seed+7))
	if cfg.Tables >= 0 {
		if err := net.AttachDataPlane(rules.NewManager(ft.Graph(), cfg.Tables)); err != nil {
			return nil, fmt.Errorf("rule tables: %w", err)
		}
	}
	return &World{FT: ft, Net: net, Planner: core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)}, nil
}

// Fill places Yahoo-like background flows between hosts, drawn with
// seed, until the network's utilization reaches target. A target the
// hosts cannot reach is not an error. Fill does nothing when target <= 0
// or when log holds a checkpoint: the checkpoint restores its own
// flows, while replay without one folds against the filled network.
func (w *World) Fill(seed int64, hosts []topology.NodeID, target float64, log *wal.Log) error {
	if target <= 0 || (log != nil && log.Checkpoint() != nil) {
		return nil
	}
	gen, err := trace.NewGenerator(seed, trace.YahooLike{}, hosts)
	if err != nil {
		return err
	}
	if _, err := trace.FillBackground(w.Net, gen, target, 0); err != nil && !errors.Is(err, trace.ErrTargetUnreachable) {
		return fmt.Errorf("background: %w", err)
	}
	return nil
}

// NewScheduler builds cfg's scheduling policy. An unknown name returns
// a *sched.UnknownSchedulerError listing the registered ones.
func (c Config) NewScheduler() (sched.Scheduler, error) {
	return sched.New(c.Scheduler, sched.WithAlpha(c.Alpha), sched.WithSeed(c.Seed))
}

// Meta is the WAL meta of cfg's world run by s. A log records it when
// first written, and opening a log that records anything else fails
// with wal.ErrMetaMismatch. No tables is always recorded as NoTables.
// A sharded server adds its placement when it attaches the log.
func (c Config) Meta(s sched.Scheduler) *wal.Meta {
	tables := c.Tables
	if tables < 0 {
		tables = NoTables
	}
	return &wal.Meta{
		Format:    wal.FormatVersion,
		Scheduler: s.Name(),
		Seed:      c.Seed,
		K:         c.K,
		Util:      c.Util,
		Watermark: c.Watermark,
		Tables:    tables,
	}
}
