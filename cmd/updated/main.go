// Command updated is the update-controller daemon: it owns a simulated
// data-center network (k-ary Fat-Tree pre-loaded with background traffic)
// and schedules update events submitted over the ctl protocol with the
// configured policy (FIFO, LMTF or P-LMTF).
//
// Usage:
//
//	updated [-addr :7421] [-k 8] [-util 0.6] [-scheduler p-lmtf]
//	        [-alpha 4] [-seed 1] [-telemetry-addr :9090]
//	        [-wal-dir /var/lib/updated/wal] [-wal-sync group]
//	        [-span-out /var/log/updated/spans.jsonl]
//	        [-follow leader:7421] [-promote-after 2s]
//
// With -follow set (requires -wal-dir), the daemon boots as a warm
// follower: it replicates the leader's WAL over the ctl port, folds
// every committed record into the same deterministic state, and
// rejects writes with a not-leader hint until promoted. Promotion is
// manual (`updatectl repl promote`) or automatic once the leader has
// been unreachable for -promote-after. The follower must be started
// with the same world flags as the leader (scheduler, seed, k, util,
// watermark, tables); the leader refuses mismatched followers at
// handshake. See DESIGN.md §15.
//
// With -shards N (N > 1), the control plane is partitioned: N engines
// each own a contiguous range of pods and an equal slice of the core
// layer, behind an in-process gateway that speaks the ordinary ctl
// protocol, routes each event by the pods its flows touch, and
// aggregates stats, metrics and traces. Cross-shard events reserve
// core capacity from a shared pool (-cross-pool-frac) via two-phase
// admission. With -shard-addrs a1,a2,... the daemon is only the
// gateway, fronting already-running remote engines; start each of
// those with -shard-id i -shard-of N (and the same -k and world flags
// as the gateway) so it builds its slot of the same partition and
// mints strided event IDs. See DESIGN.md §16.
//
// With -span-out set, every event's stage-level latency span (submit,
// ingest, admit, wal_commit, probed rounds, exec, complete) is written
// as JSON lines; analyze offline with `updatectl trace report`.
//
// With -telemetry-addr set, the daemon also serves live telemetry over
// HTTP: Prometheus metrics on /metrics, expvar on /debug/vars, and
// net/http/pprof on /debug/pprof/.
//
// With -wal-dir set, every admitted event and fault injection is
// recorded in a write-ahead log before its submission is acknowledged;
// restarting the daemon with the same flags and WAL directory recovers
// the exact pre-crash state (checkpoint plus log-suffix replay).
//
// Submit work with cmd/updatectl or any client speaking line-delimited
// JSON (see internal/ctl).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	netpkg "net" // aliased: the local network state below is named net
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/obs"
	"netupdate/internal/shard"
	"netupdate/internal/sim"
	"netupdate/internal/wal"
	"netupdate/internal/world"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, sigs))
}

// run is the daemon body; main injects the real stdout and signal
// channel, tests inject buffers and a synthetic stop. The bound control
// address is always printed before the daemon reports ready, so callers
// using "-addr :0" learn the real port.
func run(args []string, stdout io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("updated", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":7421", "listen address")
		k         = fs.Int("k", 8, "fat-tree arity")
		util      = fs.Float64("util", 0.6, "background utilization target")
		schedName = fs.String("scheduler", "p-lmtf", "scheduling policy (see sched.Names)")
		alpha     = fs.Int("alpha", 4, "LMTF/P-LMTF sample size")
		seed      = fs.Int64("seed", 1, "random seed")
		watermark = fs.Int("watermark", ctl.DefaultHighWatermark, "queue high-watermark: submissions past it are rejected with a retry-after hint")
		tables    = fs.Int("tables", -1, "attach per-switch rule tables with this capacity (0 = unlimited, -1 = off)")
		telemetry = fs.String("telemetry-addr", "", "HTTP telemetry address serving /metrics, /debug/vars and /debug/pprof (empty = off)")
		walDir    = fs.String("wal-dir", "", "write-ahead log directory for durable admission and crash recovery (empty = off)")
		walSync   = fs.String("wal-sync", "group", "WAL durability policy: always (fsync per record), group (fsync per commit batch), off (no fsync)")
		walCkpt   = fs.Int("wal-checkpoint-every", ctl.DefaultCheckpointEvery, "records between automatic WAL checkpoints (<0 = never)")
		spanOut   = fs.String("span-out", "", "write per-event stage latency spans to this JSONL file (empty = off); analyze with updatectl trace report")
		follow    = fs.String("follow", "", "run as a warm follower replicating from this leader ctl address (requires -wal-dir)")
		promote   = fs.Duration("promote-after", 0, "auto-promote after the leader has been unreachable this long (0 = manual promotion only; follower mode)")
		maxFoll   = fs.Int("max-followers", 0, "cap on attached replication followers (0 = library default; leader mode)")
		shards    = fs.Int("shards", 1, "partition the control plane into this many pod-sharded engines behind an in-process routing gateway")
		shardAddr = fs.String("shard-addrs", "", "comma-separated remote shard engine ctl addresses; run as a routing gateway fronting them (shard i+1 = i-th address)")
		shardID   = fs.Int("shard-id", 0, "run as one standalone shard engine: this 1-based slot of a -shard-of partition (behind a -shard-addrs gateway)")
		shardOf   = fs.Int("shard-of", 0, "total shard count of the partition this engine is one slot of (requires -shard-id)")
		crossFrac = fs.Float64("cross-pool-frac", 0, "fraction of core-layer capacity reserved for cross-shard events (0 = default 0.25; sharded modes only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *follow != "" && *walDir == "" {
		fmt.Fprintln(os.Stderr, "updated: -follow requires -wal-dir (the follower persists the replicated log)")
		return 2
	}
	if (*shardID != 0) != (*shardOf != 0) {
		fmt.Fprintln(os.Stderr, "updated: -shard-id and -shard-of must be set together")
		return 2
	}
	if *shardID != 0 && (*shards > 1 || *shardAddr != "") {
		fmt.Fprintln(os.Stderr, "updated: -shard-id is a standalone engine slot; it cannot combine with -shards or -shard-addrs")
		return 2
	}
	if *shards > 1 || *shardAddr != "" || *shardID != 0 {
		for name, set := range map[string]bool{
			"-follow":   *follow != "",
			"-span-out": *spanOut != "",
			"-tables":   *tables >= 0,
		} {
			if set {
				fmt.Fprintf(os.Stderr, "updated: %s is not supported in sharded mode\n", name)
				return 2
			}
		}
		if *shardID != 0 {
			return runShardEngine(stdout, stop, *addr, *telemetry, shard.WorldConfig{
				K: *k, Util: *util, Scheduler: *schedName, Alpha: *alpha, Seed: *seed,
				Watermark: *watermark, Shards: *shardOf, CrossPoolFrac: *crossFrac,
				WALDir: *walDir, WALSync: *walSync, CheckpointEvery: *walCkpt,
			}, *shardID)
		}
		if *shardAddr != "" {
			return runGateway(stdout, stop, *addr, *telemetry, *k, *crossFrac, strings.Split(*shardAddr, ","))
		}
		return runShardedCluster(stdout, stop, *addr, *telemetry, shard.WorldConfig{
			K: *k, Util: *util, Scheduler: *schedName, Alpha: *alpha, Seed: *seed,
			Watermark: *watermark, Shards: *shards, CrossPoolFrac: *crossFrac,
			WALDir: *walDir, WALSync: *walSync, CheckpointEvery: *walCkpt,
		})
	}

	wcfg := world.Config{
		K: *k, Util: *util, Seed: *seed, Tables: *tables,
		Scheduler: *schedName, Alpha: *alpha, Watermark: *watermark,
	}
	scheduler, err := wcfg.NewScheduler()
	if err != nil {
		// The typed error lists every registered scheduler.
		fmt.Fprintf(os.Stderr, "updated: %v\n", err)
		return 2
	}

	// Open the WAL before building the world: whether it holds a
	// checkpoint decides whether the background fill runs (a checkpoint
	// restores its own flows; replay without one folds against the
	// freshly filled genesis network).
	var walLog *wal.Log
	var meta *wal.Meta
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: %v\n", err)
			return 2
		}
		walLog, err = wal.Open(*walDir, wal.WithSync(policy))
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: wal: %v\n", err)
			return 1
		}
		meta = wcfg.Meta(scheduler)
	}

	cfg := ctl.Config{Scheduler: scheduler, Watermark: *watermark}
	if *spanOut != "" {
		f, err := os.Create(*spanOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: span-out: %v\n", err)
			return 1
		}
		// Registered before the server exists, so it runs after srv.Close
		// has drained the async span sink into the file.
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "updated: span-out close: %v\n", err)
			}
		}()
		cfg.SpanSink = obs.NewJSONLSink(f)
		fmt.Fprintf(stdout, "updated: stage spans to %s\n", *spanOut)
	}

	// A follower handshakes before the world is built: if the leader
	// ships a bootstrap checkpoint it is installed into the empty log
	// now, so world.Build sees it exactly as it would a locally written
	// checkpoint.
	var followCfg ctl.FollowerConfig
	var followSess *ctl.FollowerSession
	if *follow != "" {
		followCfg = ctl.FollowerConfig{
			Log:             walLog,
			Meta:            meta,
			LeaderAddr:      *follow,
			CheckpointEvery: *walCkpt,
			PromoteAfter:    *promote,
			Watermark:       cfg.Watermark,
			SpanSink:        cfg.SpanSink,
		}
		followSess, err = ctl.FollowerBootstrap(followCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: follow %s: %v\n", *follow, err)
			return 1
		}
	}

	w, err := world.Build(wcfg, walLog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: %v\n", err)
		return 1
	}
	if *tables >= 0 {
		fmt.Fprintf(stdout, "updated: two-phase rule tables attached (capacity %d per switch)\n", *tables)
	}
	if walLog != nil && walLog.Checkpoint() != nil {
		fmt.Fprintf(stdout, "updated: background fill skipped, restoring from checkpoint\n")
	} else if *util > 0 {
		fmt.Fprintf(stdout, "updated: background %d flows, utilization %.3f\n", len(w.Net.Registry().Placed()), w.Net.Utilization())
	}

	cfg.Planner = w.Planner
	var srv *ctl.Server
	var rec *ctl.RecoveryInfo
	if followSess != nil {
		srv, rec, err = ctl.NewFollower(w.Planner, scheduler, sim.Config{}, followCfg, followSess)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: follower recovery: %v\n", err)
			return 1
		}
	} else {
		if walLog != nil {
			cfg.WAL = &ctl.WALConfig{Log: walLog, Meta: meta, CheckpointEvery: *walCkpt}
			cfg.Replication.MaxFollowers = *maxFoll
		}
		srv, rec, err = ctl.New(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: wal recovery: %v\n", err)
			return 1
		}
	}
	if rec != nil {
		if rec.Recovered {
			fmt.Fprintf(stdout, "updated: recovered from WAL: checkpoint seq %d, %d records replayed, last seq %d (%v)\n",
				rec.CheckpointSeq, rec.ReplayedRecords, rec.LastSeq, rec.Elapsed.Round(time.Millisecond))
		}
		fmt.Fprintf(stdout, "updated: wal in %s (sync=%s)\n", *walDir, *walSync)
	}
	if followSess != nil {
		promotion := "manual promotion only"
		if *promote > 0 {
			promotion = fmt.Sprintf("auto-promote after %v", *promote)
		}
		fmt.Fprintf(stdout, "updated: following %s (%s)\n", *follow, promotion)
	}

	if *telemetry != "" {
		stopTelemetry, err := startTelemetry(stdout, *telemetry, obs.Handler(srv.Registry()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: telemetry: %v\n", err)
			return 1
		}
		defer stopTelemetry()
	}

	return serveCtl(stdout, stop, *addr, srv, func(l netpkg.Listener) {
		fmt.Fprintf(stdout, "updated: %s scheduler on %s (k=%d, %d hosts)\n",
			scheduler.Name(), l.Addr(), *k, w.FT.NumHosts())
	})
}

// runShardedCluster is the -shards N mode: one process hosting N
// pod-partitioned engines behind an in-process routing gateway that
// speaks the ordinary ctl protocol on addr. Telemetry serves the
// gateway's registry on /metrics and each engine's on
// /metrics/shard/<id>.
func runShardedCluster(stdout io.Writer, stop <-chan os.Signal, addr, telemetry string, cfg shard.WorldConfig) int {
	cl, err := shard.NewCluster(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: %v\n", err)
		return 1
	}
	defer func() {
		if err := cl.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "updated: cluster close: %v\n", err)
		}
	}()
	gw, err := shard.NewGateway(cl.Part, cl.Ref.Graph(), cl.Cross, cl.Backends())
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: %v\n", err)
		return 1
	}

	if telemetry != "" {
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(gw.Registry()))
		for _, w := range cl.Worlds {
			reg := w.Server.Registry()
			mux.HandleFunc(fmt.Sprintf("/metrics/shard/%d", w.ID), func(rw http.ResponseWriter, _ *http.Request) {
				rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				reg.WritePrometheus(rw)
			})
		}
		stopTelemetry, err := startTelemetry(stdout, telemetry, mux)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: telemetry: %v\n", err)
			return 1
		}
		defer stopTelemetry()
	}
	if cfg.WALDir != "" {
		fmt.Fprintf(stdout, "updated: per-shard wal under %s\n", cfg.WALDir)
	}
	return serveCtl(stdout, stop, addr, gw, func(l netpkg.Listener) {
		for _, w := range cl.Worlds {
			fmt.Fprintf(stdout, "updated: shard %d owns pods %v\n", w.ID, cl.Part.PodsOf(w.ID))
		}
		fmt.Fprintf(stdout, "updated: gateway for %d shards on %s (k=%d, %s scheduler)\n",
			len(cl.Worlds), l.Addr(), cfg.K, cfg.Scheduler)
	})
}

// runShardEngine is the -shard-id/-shard-of mode: one standalone
// engine owning a single slot of a pod partition, built exactly as the
// in-process cluster would build it (core capacity split, pod-local
// fill, strided event IDs, WAL bound to the slot), meant to sit behind
// a -shard-addrs gateway started with the same -k.
func runShardEngine(stdout io.Writer, stop <-chan os.Signal, addr, telemetry string, cfg shard.WorldConfig, id int) int {
	w, err := shard.NewShardWorld(cfg, id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: %v\n", err)
		return 1
	}
	if telemetry != "" {
		stopTelemetry, err := startTelemetry(stdout, telemetry, obs.Handler(w.Server.Registry()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: telemetry: %v\n", err)
			return 1
		}
		defer stopTelemetry()
	}
	if cfg.WALDir != "" {
		fmt.Fprintf(stdout, "updated: wal in %s/shard-%d (sync=%s)\n", cfg.WALDir, id, cfg.WALSync)
	}
	return serveCtl(stdout, stop, addr, w.Server, func(l netpkg.Listener) {
		fmt.Fprintf(stdout, "updated: engine shard %d of %d on %s, owns pods %v (k=%d, %s scheduler)\n",
			id, cfg.Shards, l.Addr(), w.Pods, cfg.K, cfg.Scheduler)
	})
}

// runGateway is the -shard-addrs mode: a routing gateway fronting
// already-running remote shard engines (each an `updated` started with
// matching world flags; shard i+1 is the i-th address).
func runGateway(stdout io.Writer, stop <-chan os.Signal, addr, telemetry string, k int, crossFrac float64, shardAddrs []string) int {
	backends := make([]ctl.Backend, len(shardAddrs))
	closeBackends := func() {
		for _, b := range backends {
			if b != nil {
				_ = b.Close()
			}
		}
	}
	for i, a := range shardAddrs {
		a = strings.TrimSpace(a)
		c, err := ctl.DialBinary(a)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: shard %d (%s): %v\n", i+1, a, err)
			closeBackends()
			return 1
		}
		backends[i] = c
		feats, err := c.Features()
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: shard %d (%s): ping: %v\n", i+1, a, err)
			closeBackends()
			return 1
		}
		for _, f := range feats {
			if f == ctl.FeatureShardVerdicts {
				c.EnableShardInfo()
			}
		}
		// Identity check: an engine booted with -shard-id/-shard-of
		// advertises its slot in stats. Wiring slot 2's engine as the
		// first address would silently misroute every event, so a
		// declared identity must match its position; an engine with no
		// identity (plain `updated`) still works, but mints unstrided
		// IDs, so cross-shard status routing cannot find its events.
		st, err := c.Stats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: shard %d (%s): stats: %v\n", i+1, a, err)
			closeBackends()
			return 1
		}
		if st.ShardID != 0 && (st.ShardID != i+1 || st.Shards != len(shardAddrs)) {
			fmt.Fprintf(os.Stderr, "updated: shard %d (%s): engine identifies as shard %d of %d, want %d of %d — shard-addrs order must match engine slots\n",
				i+1, a, st.ShardID, st.Shards, i+1, len(shardAddrs))
			closeBackends()
			return 1
		}
		if st.ShardID == 0 && len(shardAddrs) > 1 {
			fmt.Fprintf(stdout, "updated: warning: shard %d engine at %s has no shard identity; its event IDs will not stride, so status lookups may miss (boot engines with -shard-id/-shard-of)\n", i+1, a)
		}
	}
	defer closeBackends()

	gw, err := shard.NewRemoteGateway(k, crossFrac, backends)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: %v\n", err)
		return 1
	}
	if telemetry != "" {
		stopTelemetry, err := startTelemetry(stdout, telemetry, obs.Handler(gw.Registry()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: telemetry: %v\n", err)
			return 1
		}
		defer stopTelemetry()
	}
	return serveCtl(stdout, stop, addr, gw, func(l netpkg.Listener) {
		fmt.Fprintf(stdout, "updated: gateway for %d remote shards on %s (k=%d)\n",
			len(shardAddrs), l.Addr(), k)
	})
}

// ctlService is the serve surface shared by the engine server and the
// shard gateway.
type ctlService interface {
	Serve(netpkg.Listener) error
	Close() error
}

// startTelemetry binds addr synchronously — so a bad address fails at
// startup, not in a goroutine after the daemon already reported itself
// healthy — and serves h until the returned shutdown func runs.
func startTelemetry(stdout io.Writer, addr string, h http.Handler) (func(), error) {
	l, err := netpkg.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	telemetrySrv := &http.Server{Handler: h}
	go func() {
		if err := telemetrySrv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "updated: telemetry: %v\n", err)
		}
	}()
	fmt.Fprintf(stdout, "updated: telemetry on http://%s/metrics\n", l.Addr())
	return func() {
		if err := telemetrySrv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "updated: telemetry close: %v\n", err)
		}
	}, nil
}

// serveCtl binds addr before serving — so a taken address fails fast
// and the printed address is the real one even for ":0" — then serves
// s until a stop signal or a serve error.
func serveCtl(stdout io.Writer, stop <-chan os.Signal, addr string, s ctlService, banner func(l netpkg.Listener)) int {
	l, err := netpkg.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: listen: %v\n", err)
		return 1
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	fmt.Fprintf(stdout, "updated: listening on %s\n", l.Addr())
	if banner != nil {
		banner(l)
	}

	select {
	case sig := <-stop:
		fmt.Fprintf(stdout, "updated: %v, shutting down\n", sig)
		if err := s.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "updated: close: %v\n", err)
			return 1
		}
		if err := <-serveErr; err != nil && !errors.Is(err, ctl.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "updated: %v\n", err)
			return 1
		}
		return 0
	case err := <-serveErr:
		if err != nil && !errors.Is(err, ctl.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "updated: %v\n", err)
			return 1
		}
		return 0
	}
}
