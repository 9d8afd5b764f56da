// Package netupdate_test benchmarks the reproduction: one benchmark per
// figure of the paper's evaluation (each iteration regenerates the figure
// in quick mode; run `go run ./cmd/netupdate -all` for the full-scale
// versions) plus micro-benchmarks of the hot paths (path enumeration,
// admission with migration, event cost probes, scheduler decisions) and
// the ablation studies DESIGN.md calls out.
package netupdate_test

import (
	"io"
	"testing"

	"netupdate/internal/core"
	"netupdate/internal/experiments"
	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// benchExperiment runs one experiment per iteration in quick mode.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	exp, ok := experiments.Find(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(experiments.Options{Seed: int64(i + 1), Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per figure of the evaluation section.

func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationAlpha(b *testing.B)   { benchExperiment(b, "ablation-alpha") }
func BenchmarkAblationGreedy(b *testing.B)  { benchExperiment(b, "ablation-greedy") }
func BenchmarkAblationReorder(b *testing.B) { benchExperiment(b, "ablation-reorder") }
func BenchmarkAblationChurn(b *testing.B)   { benchExperiment(b, "ablation-churn") }
func BenchmarkAblationSplit(b *testing.B)   { benchExperiment(b, "ablation-split") }
func BenchmarkAblationRuleOps(b *testing.B) { benchExperiment(b, "ablation-ruleops") }
func BenchmarkAblationOnline(b *testing.B)  { benchExperiment(b, "ablation-online") }
func BenchmarkAblationBatch(b *testing.B)   { benchExperiment(b, "ablation-batch") }

// benchEnv builds a loaded k=8 fat-tree once, outside the timed loop.
func benchEnv(b *testing.B, util float64) (*netstate.Network, *topology.FatTree, *trace.Generator) {
	b.Helper()
	ft, err := topology.NewFatTree(8, topology.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
	gen, err := trace.NewGenerator(1, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		b.Fatal(err)
	}
	if util > 0 {
		if _, err := trace.FillBackground(net, gen, util, 0); err != nil {
			b.Fatal(err)
		}
	}
	return net, ft, gen
}

// BenchmarkFatTreePaths measures ECMP path-set enumeration (cold cache).
func BenchmarkFatTreePaths(b *testing.B) {
	ft, err := topology.NewFatTree(8, topology.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	hosts := ft.Hosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prov := routing.NewFatTreeProvider(ft)
		_ = prov.Paths(hosts[i%64], hosts[64+i%64])
	}
}

// BenchmarkFatTreePathsCached measures the hot (cached) lookup.
func BenchmarkFatTreePathsCached(b *testing.B) {
	ft, err := topology.NewFatTree(8, topology.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	prov := routing.NewFatTreeProvider(ft)
	hosts := ft.Hosts()
	prov.Paths(hosts[0], hosts[100])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prov.Paths(hosts[0], hosts[100])
	}
}

// BenchmarkBuildFatTree measures substrate construction.
func BenchmarkBuildFatTree(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topology.NewFatTree(8, topology.Gbps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFillBackground measures loading the fabric to 60%.
func BenchmarkFillBackground(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ft, err := topology.NewFatTree(8, topology.Gbps)
		if err != nil {
			b.Fatal(err)
		}
		net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
		gen, err := trace.NewGenerator(int64(i+1), trace.YahooLike{}, ft.Hosts())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := trace.FillBackground(net, gen, 0.6, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitFlow measures one admission (fast or slow path) at 70%
// utilization, with rollback so every iteration sees the same state.
func BenchmarkAdmitFlow(b *testing.B) {
	net, _, gen := benchEnv(b, 0.7)
	mig := migration.NewPlanner(net, 0)
	specs := gen.Specs(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := specs[i%len(specs)]
		spec.Event = 1
		f, err := net.AddFlow(spec)
		if err != nil {
			b.Fatal(err)
		}
		res, admitErr := mig.Admit(f)
		if admitErr == nil {
			if err := mig.Rollback(res); err != nil {
				b.Fatal(err)
			}
		}
		if err := net.Remove(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeEvent measures the LMTF cost probe of a 50-flow event.
func BenchmarkProbeEvent(b *testing.B) {
	net, _, gen := benchEnv(b, 0.7)
	planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
	ev := gen.Event(1, "bench", 0, 50, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Probe(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecision measures one scheduling decision over a 30-event queue
// for each policy.
func BenchmarkDecision(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"fifo", func() sched.Scheduler { return sched.FIFO{} }},
		{"lmtf", func() sched.Scheduler { return sched.NewLMTF(4, 1) }},
		{"plmtf", func() sched.Scheduler { return sched.NewPLMTF(4, 1) }},
		{"reorder", func() sched.Scheduler { return sched.Reorder{} }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			net, _, gen := benchEnv(b, 0.6)
			planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
			q := sched.NewQueue()
			for _, ev := range gen.Events(30, 10, 40) {
				q.Push(ev)
			}
			s := tc.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Pick(q, planner); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEnd measures a whole simulation (10 events, k=8, 60%).
func BenchmarkEndToEnd(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"fifo", func() sched.Scheduler { return sched.FIFO{} }},
		{"lmtf", func() sched.Scheduler { return sched.NewLMTF(4, 1) }},
		{"plmtf", func() sched.Scheduler { return sched.NewPLMTF(4, 1) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, _, gen := benchEnv(b, 0.6)
				planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
				events := gen.Events(10, 10, 40)
				engine := sim.NewEngine(planner, tc.mk(), sim.Config{})
				b.StartTimer()
				if _, err := engine.Run(events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceOverhead measures what observability costs a whole
// simulation: the same P-LMTF run untraced (the nil fast path the <5%
// decision-bench criterion guards), with the in-memory ring sink
// (cmd/updated's always-on configuration) and with a JSONL sink
// (netupdate -trace-out). scripts/bench.sh records the off-vs-ring
// delta in BENCH_<date>.json.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() *obs.Tracer
	}{
		{"off", func() *obs.Tracer { return nil }},
		{"ring", func() *obs.Tracer {
			return obs.NewTracer(obs.NewRingSink(4096), obs.NewSimMetrics(obs.NewRegistry()))
		}},
		{"jsonl", func() *obs.Tracer {
			return obs.NewTracer(obs.NewJSONLSink(io.Discard), obs.NewSimMetrics(obs.NewRegistry()))
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, _, gen := benchEnv(b, 0.6)
				planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
				events := gen.Events(10, 10, 40)
				engine := sim.NewEngine(planner, sched.NewPLMTF(4, 1), sim.Config{})
				engine.SetTracer(tc.mk())
				b.StartTimer()
				if _, err := engine.Run(events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlowLevelEndToEnd measures the flow-level baseline runner.
func BenchmarkFlowLevelEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, _, gen := benchEnv(b, 0.6)
		planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
		events := gen.Events(10, 10, 40)
		fl := sim.NewFlowLevel(planner, sim.Config{})
		b.StartTimer()
		if _, err := fl.Run(events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReserveRelease measures the bandwidth ledger's hot path.
func BenchmarkReserveRelease(b *testing.B) {
	g := topology.NewGraph()
	x := g.AddNode(topology.KindEdgeSwitch, "x")
	y := g.AddNode(topology.KindEdgeSwitch, "y")
	l, err := g.AddLink(x, y, topology.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Reserve(l, topology.Mbps); err != nil {
			b.Fatal(err)
		}
		if err := g.Release(l, topology.Mbps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryFlowsOn measures the link->flows inverted index query
// used by every migration-candidate scan.
func BenchmarkRegistryFlowsOn(b *testing.B) {
	net, _, _ := benchEnv(b, 0.6)
	// Find the busiest link.
	g := net.Graph()
	var busiest topology.LinkID
	for i := 0; i < g.NumLinks(); i++ {
		if net.Registry().NumFlowsOn(topology.LinkID(i)) > net.Registry().NumFlowsOn(busiest) {
			busiest = topology.LinkID(i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Registry().FlowsOn(busiest)
	}
}

// BenchmarkNetworkSyncFrom measures a probe lane's resync after one
// committed event: the live network admits a 10-40 flow event (with
// migrations), then a lane that matched it before the commit is brought
// back in sync. Between iterations (untimed) the event is rolled back
// and the next one committed, so the live network stays at the same
// load and each resync replays one rollback plus one commit. B/op and
// allocs/op are exact; ns/op also includes pausing the timer, which
// reads runtime.MemStats twice per iteration (~40 µs each on a 2-CPU
// host).
func BenchmarkNetworkSyncFrom(b *testing.B) {
	net, _, gen := benchEnv(b, 0.6)
	planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
	lane := net.Fork()
	commit := func(id int) *core.ExecResult {
		res, err := planner.Execute(gen.Event(flow.EventID(id), "bench", 0, 10, 40))
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	res := commit(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lane.SyncFrom(net)
		b.StopTimer()
		if err := planner.RollbackExec(res); err != nil {
			b.Fatal(err)
		}
		res = commit(i + 2)
		b.StartTimer()
	}
}

// BenchmarkNetworkFork measures the scratch-state copy behind parallel
// probing: per-link reservations plus flow placements on a loaded fabric
// (topology and path caches are shared, not copied).
func BenchmarkNetworkFork(b *testing.B) {
	net, _, _ := benchEnv(b, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Fork()
	}
}
