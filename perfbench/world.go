package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/ctl"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/shard"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
	"netupdate/internal/wal"
)

// Scheduling policy of every workload: P-LMTF with sample size 4.
const (
	schedName = "p-lmtf"
	alpha     = 4
)

// walSync is durable-k4's WAL policy, on the leader and the follower:
// records are written before the ack, but not fsynced. On a host whose
// disk is shared, fsync time swings from run to run by more than any
// bound a change could be held to; the WAL kernel measures the fsync
// cost of the workload's batches under group sync instead.
const walSync = wal.SyncOff

// world is a prepared fat-tree network at a background utilization, the
// same construction cmd/updated and cmd/loadgen use.
type world struct {
	net     *netstate.Network
	planner *core.Planner
}

// buildWorld builds a k-ary fat-tree filled to util. fill=false skips
// the background (a WAL checkpoint restores its own flows).
func buildWorld(k int, util float64, seed int64, fill bool) (*world, error) {
	ft, err := topology.NewFatTree(k, topology.Gbps)
	if err != nil {
		return nil, err
	}
	nw := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(seed+7))
	if fill && util > 0 {
		gen, err := trace.NewGenerator(seed, trace.YahooLike{}, ft.Hosts())
		if err != nil {
			return nil, err
		}
		if _, err := trace.FillBackground(nw, gen, util, 0); err != nil && !errors.Is(err, trace.ErrTargetUnreachable) {
			return nil, err
		}
	}
	return &world{net: nw, planner: core.NewPlanner(migration.NewPlanner(nw, 0), core.FailSkip)}, nil
}

// serverSpec is how one single-engine workload builds its controller.
type serverSpec struct {
	k         int
	util      float64
	seed      int64
	watermark int
	walDir    string // empty: no WAL
	sink      obs.Sink
	wrap      func(sched.Scheduler) sched.Scheduler // nil: the plain policy
}

func (sp serverSpec) meta() *wal.Meta {
	return &wal.Meta{Format: wal.FormatVersion, Scheduler: schedName, Seed: sp.seed, K: sp.k, Util: sp.util, Watermark: sp.watermark}
}

func (sp serverSpec) scheduler() (sched.Scheduler, error) {
	s, err := sched.New(schedName, sched.WithAlpha(alpha), sched.WithSeed(sp.seed))
	if err != nil {
		return nil, err
	}
	if sp.wrap != nil {
		s = sp.wrap(s)
	}
	return s, nil
}

// served is a controller listening on a loopback port.
type served struct {
	backend io.Closer
	srv     *ctl.Server // nil for a gateway
	addr    string
	wire    io.Closer
	done    chan error

	closeOnce sync.Once
	closeErr  error
}

// Close stops the wire, then the engine(s), and waits for Serve. Later
// calls return the first call's result.
func (s *served) Close() error {
	s.closeOnce.Do(func() {
		err := s.wire.Close()
		if s.backend != s.wire {
			if cerr := s.backend.Close(); err == nil {
				err = cerr
			}
		}
		if serr := <-s.done; !errors.Is(serr, ctl.ErrServerClosed) && err == nil {
			err = serr
		}
		s.closeErr = err
	})
	return s.closeErr
}

// startServer builds the world and the controller, serves it on
// loopback and returns once a ping over the wire is answered.
func startServer(sp serverSpec) (*served, *ctl.RecoveryInfo, error) {
	var walCfg *ctl.WALConfig
	restoring := false
	if sp.walDir != "" {
		log, err := wal.Open(sp.walDir, wal.WithSync(walSync))
		if err != nil {
			return nil, nil, err
		}
		restoring = log.Checkpoint() != nil
		walCfg = &ctl.WALConfig{Log: log, Meta: sp.meta()}
	}
	w, err := buildWorld(sp.k, sp.util, sp.seed, !restoring)
	if err != nil {
		return nil, nil, err
	}
	s, err := sp.scheduler()
	if err != nil {
		return nil, nil, err
	}
	srv, rec, err := ctl.New(ctl.Config{
		Planner: w.planner, Scheduler: s, Sim: sim.Config{},
		Watermark: sp.watermark, SpanSink: sp.sink, WAL: walCfg,
	})
	if err != nil {
		return nil, nil, err
	}
	sv, err := serve(srv, srv, srv.Serve)
	if err != nil {
		return nil, nil, err
	}
	sv.srv = srv
	return sv, rec, nil
}

// serve listens on an ephemeral loopback port, serves with serveFn and
// pings the address once, so the returned controller has answered a
// request over the wire.
func serve(backend, wire io.Closer, serveFn func(net.Listener) error) (*served, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = backend.Close()
		return nil, err
	}
	sv := &served{backend: backend, wire: wire, addr: l.Addr().String(), done: make(chan error, 1)}
	go func() { sv.done <- serveFn(l) }()
	if err := ping(sv.addr); err != nil {
		_ = sv.Close()
		return nil, err
	}
	return sv, nil
}

func ping(addr string) error {
	c, err := ctl.DialBinary(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Ping()
}

// startFollower attaches a warm follower, with its own WAL in dir, to the
// leader at leaderAddr.
func startFollower(sp serverSpec, dir, leaderAddr string) (*ctl.Server, error) {
	log, err := wal.Open(dir, wal.WithSync(walSync))
	if err != nil {
		return nil, err
	}
	cfg := ctl.FollowerConfig{Log: log, Meta: sp.meta(), LeaderAddr: leaderAddr}
	sess, err := ctl.FollowerBootstrap(cfg)
	if err != nil {
		return nil, fmt.Errorf("follower bootstrap: %w", err)
	}
	w, err := buildWorld(sp.k, sp.util, sp.seed, log.Checkpoint() == nil)
	if err != nil {
		return nil, err
	}
	s, err := sp.scheduler()
	if err != nil {
		return nil, err
	}
	srv, _, err := ctl.NewFollower(w.planner, s, sim.Config{}, cfg, sess)
	if err != nil {
		return nil, fmt.Errorf("follower: %w", err)
	}
	return srv, nil
}

// clusterSpec is how sharded-k8 builds its controller.
type clusterSpec struct {
	cfg shard.WorldConfig
	// wrapBackend, when set, wraps each engine handed to the gateway;
	// handle, when set, serves the gateway through a wire server whose
	// handler it wraps.
	wrapBackend func(ctl.Backend) ctl.Backend
	handle      func(func(ctl.Request, int64) ctl.Response) func(ctl.Request, int64) ctl.Response
}

// cluster is a served sharded control plane: engines behind a gateway.
type cluster struct {
	*served
	cl *shard.Cluster
}

// startCluster builds the shard cluster and its gateway and serves it on
// loopback, returning once a ping through the gateway is answered.
func startCluster(cs clusterSpec) (*cluster, error) {
	cl, err := shard.NewCluster(cs.cfg)
	if err != nil {
		return nil, err
	}
	backends := cl.Backends()
	if cs.wrapBackend != nil {
		for i, b := range backends {
			backends[i] = cs.wrapBackend(b)
		}
	}
	gw, err := shard.NewGateway(cl.Part, cl.Ref.Graph(), cl.Cross, backends)
	if err != nil {
		_ = cl.Close()
		return nil, err
	}
	var wire io.Closer = gw
	serveFn := gw.Serve
	if cs.handle != nil {
		ws := &ctl.WireServer{Handle: cs.handle(gw.Handle)}
		wire, serveFn = ws, ws.Serve
	}
	sv, err := serve(cl, wire, serveFn)
	if err != nil {
		return nil, err
	}
	return &cluster{served: sv, cl: cl}, nil
}

// since is the seconds elapsed from t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
