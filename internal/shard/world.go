package shard

import (
	"fmt"
	"math"
	"path/filepath"

	"netupdate/internal/ctl"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
	"netupdate/internal/world"
)

// WorldConfig describes the cluster every shard world is a slice of:
// one k-ary fat-tree, partitioned over Shards engines.
type WorldConfig struct {
	K         int
	Util      float64
	Scheduler string
	Alpha     int
	Seed      int64
	Watermark int
	Shards    int
	// CrossPoolFrac is the fraction of each core link reserved for
	// cross-shard traffic; <= 0 selects DefaultCrossPoolFrac. Ignored
	// (forced to 0) for a single shard, which has no cross traffic.
	CrossPoolFrac float64
	// WALDir, when set, gives every shard a durable log in
	// WALDir/shard-<id>; WALSync is a wal.ParseSyncPolicy name (empty =
	// "group"), CheckpointEvery as in ctl.WALConfig.
	WALDir          string
	WALSync         string
	CheckpointEvery int
}

// World is one shard's engine plus the topology slice it schedules on.
type World struct {
	ID     int
	Pods   []int // pods this shard owns, ascending
	Server *ctl.Server
	FT     *topology.FatTree
}

// Cluster is a set of shard worlds over one partition, plus the
// cross-shard admission ledgers sized from the reserved core pool.
// Ref is the full-capacity reference fat-tree the partition was built
// on — the topology a fronting gateway resolves fault specs against.
type Cluster struct {
	Part   *Partition
	Ref    *topology.FatTree
	Worlds []*World
	Cross  *CrossAdmitter
}

// NewCluster builds cfg.Shards per-shard worlds. Every world holds a
// full replica of the fat-tree (same node and link IDs as an unsharded
// run, so specs and faults need no translation), but:
//
//   - core-layer links carry capacity C·(1-frac)/N — the shard's slice
//     of the shared core, with frac of C per shard held back in the
//     gateway's cross-pool ledgers;
//   - background fill draws only from the shard's own pods' hosts, at a
//     proportionally scaled utilization target, so each world carries
//     its share of the cluster load and nothing else.
//
// With Shards == 1 the single world is byte-for-byte the unsharded
// daemon's (full core capacity, full fill).
func NewCluster(cfg WorldConfig) (*Cluster, error) {
	ref, part, frac, err := layout(cfg.K, cfg.Shards, cfg.CrossPoolFrac)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Part: part, Ref: ref, Cross: CrossPoolFor(ref, part, frac)}
	for id := 1; id <= cfg.Shards; id++ {
		w, err := newWorld(cfg, part, id, frac)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Worlds = append(cl.Worlds, w)
	}
	return cl, nil
}

// NewShardWorld builds the single world for shard id of cfg.Shards —
// the standalone-engine entry point for running one slot of a sharded
// deployment in its own process behind a -shard-addrs gateway. The
// world is exactly what NewCluster would build for the slot: same core
// capacity split, pod-restricted fill, strided event IDs, and WAL slot
// binding under cfg.WALDir/shard-<id> — so a gateway fronting N such
// engines behaves like the in-process cluster.
func NewShardWorld(cfg WorldConfig, id int) (*World, error) {
	if id < 1 || id > cfg.Shards {
		return nil, fmt.Errorf("shard: slot %d outside 1..%d", id, cfg.Shards)
	}
	_, part, frac, err := layout(cfg.K, cfg.Shards, cfg.CrossPoolFrac)
	if err != nil {
		return nil, err
	}
	return newWorld(cfg, part, id, frac)
}

// NewRemoteGateway fronts already-running shard engines of a k-ary
// fat-tree partition, backends[i] being shard i+1, with cross-shard
// ledgers sized as NewCluster sizes them for crossPoolFrac.
func NewRemoteGateway(k int, crossPoolFrac float64, backends []ctl.Backend) (*Gateway, error) {
	ref, part, frac, err := layout(k, len(backends), crossPoolFrac)
	if err != nil {
		return nil, err
	}
	return NewGateway(part, ref.Graph(), CrossPoolFor(ref, part, frac), backends)
}

// layout is what every member of a sharded deployment derives from its
// flags alike: the full-capacity reference fat-tree, its partition over
// shards, and the resolved cross-pool fraction.
func layout(k, shards int, crossPoolFrac float64) (*topology.FatTree, *Partition, float64, error) {
	if k < 4 {
		return nil, nil, 0, fmt.Errorf("shard: fat-tree arity %d too small", k)
	}
	ref, err := topology.NewFatTree(k, topology.Gbps)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("shard: %w", err)
	}
	part, err := NewPartition(ref, shards)
	if err != nil {
		return nil, nil, 0, err
	}
	frac, err := ResolveCrossPoolFrac(shards, crossPoolFrac)
	if err != nil {
		return nil, nil, 0, err
	}
	return ref, part, frac, nil
}

// ResolveCrossPoolFrac applies the cross-pool defaults: <= 0 selects
// DefaultCrossPoolFrac, >= 1 is rejected (no shard capacity left), and
// a single shard has no cross traffic so the pool is forced empty. A
// fraction that is not a finite number is rejected.
func ResolveCrossPoolFrac(shards int, frac float64) (float64, error) {
	if math.IsNaN(frac) || math.IsInf(frac, 0) {
		return 0, fmt.Errorf("shard: cross pool fraction %v is not a finite number", frac)
	}
	if frac <= 0 {
		frac = DefaultCrossPoolFrac
	}
	if frac >= 1 {
		return 0, fmt.Errorf("shard: cross pool fraction %v leaves no shard capacity", frac)
	}
	if shards == 1 {
		frac = 0
	}
	return frac, nil
}

// CrossPoolFor sizes the cross-shard admission ledgers for a reference
// topology: frac of the total shared-core capacity, split evenly into
// one ledger per shard.
func CrossPoolFor(ref *topology.FatTree, part *Partition, frac float64) *CrossAdmitter {
	var coreCap topology.Bandwidth
	g := ref.Graph()
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(topology.LinkID(id))
		if part.LinkOwner(l.From, l.To) == 0 {
			coreCap += l.Capacity
		}
	}
	return NewCrossAdmitter(part.N(), topology.Bandwidth(float64(coreCap)*frac)/topology.Bandwidth(part.N()))
}

func newWorld(cfg WorldConfig, part *Partition, id int, frac float64) (*World, error) {
	wcfg := world.Config{
		K: cfg.K, Util: cfg.Util, Seed: cfg.Seed, Tables: world.NoTables,
		Scheduler: cfg.Scheduler, Alpha: cfg.Alpha, Watermark: cfg.Watermark,
	}
	scheduler, err := wcfg.NewScheduler()
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	w, err := world.Fabric(wcfg)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	g := w.FT.Graph()
	if cfg.Shards > 1 {
		// This world's core slice: equal share of what the cross pool
		// leaves behind.
		for lid := 0; lid < g.NumLinks(); lid++ {
			l := g.Link(topology.LinkID(lid))
			if part.LinkOwner(l.From, l.To) != 0 {
				continue
			}
			slice := topology.Bandwidth(float64(l.Capacity)*(1-frac)) / topology.Bandwidth(cfg.Shards)
			if err := g.SetCapacity(topology.LinkID(lid), slice); err != nil {
				return nil, fmt.Errorf("shard %d: core split: %w", id, err)
			}
		}
	}

	// Open the WAL before filling: a checkpoint restores its own flows.
	var walLog *wal.Log
	var walCfg *ctl.WALConfig
	if cfg.WALDir != "" {
		syncName := cfg.WALSync
		if syncName == "" {
			syncName = "group"
		}
		policy, err := wal.ParseSyncPolicy(syncName)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", id, err)
		}
		walLog, err = wal.Open(filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", id)), wal.WithSync(policy))
		if err != nil {
			return nil, fmt.Errorf("shard %d: wal: %w", id, err)
		}
		walCfg = &ctl.WALConfig{Log: walLog, Meta: wcfg.Meta(scheduler), CheckpointEvery: cfg.CheckpointEvery}
	}

	// Fill only this shard's pods, toward this shard's proportional
	// share of the cluster-wide utilization target.
	pods := part.PodsOf(id)
	var hosts []topology.NodeID
	for _, h := range w.FT.Hosts() {
		if part.OfPod(w.FT.PodOf(h)) == id {
			hosts = append(hosts, h)
		}
	}
	target := cfg.Util * float64(len(pods)) / float64(w.FT.NumPods())
	if err := w.Fill(cfg.Seed+int64(id-1), hosts, target, walLog); err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}

	srv, _, err := ctl.New(ctl.Config{
		Planner:   w.Planner,
		Scheduler: scheduler,
		Watermark: cfg.Watermark,
		Shard:     ctl.ShardIdentity{ID: id, Count: cfg.Shards},
		WAL:       walCfg,
	})
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	return &World{ID: id, Pods: pods, Server: srv, FT: w.FT}, nil
}

// Backends returns the worlds' engines as the unified Backend surface,
// index s-1 holding shard s.
func (c *Cluster) Backends() []ctl.Backend {
	out := make([]ctl.Backend, len(c.Worlds))
	for i, w := range c.Worlds {
		out[i] = w.Server
	}
	return out
}

// Close shuts every world down, returning the first error.
func (c *Cluster) Close() error {
	var firstErr error
	for _, w := range c.Worlds {
		if err := w.Server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
