package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// laneWorld is a live network with a probe lane forked from it, the way
// ProbeEngine holds them, plus a foreign network of the same shape to
// sync the lane from by mistake.
//
// The fabric is a leaf-spine with three spines. Random traffic runs
// between the hosts of leaves 2-5. Leaves 0 and 1 hold a fixed two-way
// split scenario: three 600 Mbps background flows, one per spine, and a
// 500 Mbps trigger flow that can only be admitted by splitting one of
// them over the two other spines (400 Mbps of room each).
type laneWorld struct {
	t       testing.TB
	rng     *rand.Rand
	gen     *trace.Generator
	live    *netstate.Network
	liveP   *core.Planner
	lane    *netstate.Network
	laneP   *core.Planner
	foreign *netstate.Network
	nextEv  flow.EventID
	syncs   int

	// trigger is the split scenario's trigger flow and scenario the
	// hosts the scenario runs on; splitRes is the trigger's live commit
	// while one is in place, and splits counts those commits. down lists
	// the links failed so far, newest last.
	trigger  flow.Spec
	scenario map[topology.NodeID]bool
	splitRes *core.ExecResult
	splits   int
	down     []topology.LinkID
}

func newLaneWorld(t testing.TB, seed int64) *laneWorld {
	t.Helper()
	w := &laneWorld{t: t, rng: rand.New(rand.NewSource(seed)), nextEv: 1, scenario: map[topology.NodeID]bool{}}
	build := func(seed int64) (*netstate.Network, *trace.Generator) {
		ls, err := topology.NewLeafSpine(6, 3, 4, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		net := netstate.New(ls.Graph(), routing.NewBFSProvider(ls.Graph(), 0), routing.NewRandomFit(seed))
		for s := 0; s < 3; s++ {
			w.scenario[ls.Host(0, s)], w.scenario[ls.Host(1, s)] = true, true
			f, err := net.AddFlow(flow.Spec{Src: ls.Host(0, s), Dst: ls.Host(1, s), Demand: 600 * topology.Mbps, Size: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			// Each lands on an empty spine: two would not fit on one.
			if _, err := net.PlaceBest(f); err != nil {
				t.Fatal(err)
			}
		}
		w.scenario[ls.Host(0, 3)], w.scenario[ls.Host(1, 3)] = true, true
		w.trigger = flow.Spec{Src: ls.Host(0, 3), Dst: ls.Host(1, 3), Demand: 500 * topology.Mbps, Size: 1 << 20}
		var hosts []topology.NodeID
		for l := 2; l < 6; l++ {
			for h := 0; h < 4; h++ {
				hosts = append(hosts, ls.Host(l, h))
			}
		}
		gen, err := trace.NewGenerator(seed, trace.YahooLike{}, hosts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.FillBackground(net, gen, 0.35, 0); err != nil {
			t.Fatal(err)
		}
		return net, gen
	}
	w.live, w.gen = build(seed)
	w.foreign, _ = build(seed + 1)
	mig := migration.NewPlanner(w.live, 0)
	mig.SetAllowSplit(true)
	w.liveP = core.NewPlanner(mig, core.FailSkip)
	w.lane = w.live.Fork()
	w.laneP = core.NewPlanner(mig.CloneFor(w.lane), core.FailSkip)
	return w
}

// pick returns a random flow of net outside the split scenario (placed
// only when placed is set), or nil when there is none.
func (w *laneWorld) pick(net *netstate.Network, placed bool) *flow.Flow {
	var fs []*flow.Flow
	for _, f := range net.Registry().All() {
		if !w.scenario[f.Src] && (f.Placed() || !placed) {
			fs = append(fs, f)
		}
	}
	if len(fs) == 0 {
		return nil
	}
	return fs[w.rng.Intn(len(fs))]
}

func (w *laneWorld) event() *core.Event {
	ev := w.gen.Event(w.nextEv, "lane", 0, 1, 8)
	w.nextEv++
	return ev
}

// addPlaced registers one background flow on net and places it if a
// path fits.
func (w *laneWorld) addPlaced(net *netstate.Network) {
	f, err := net.AddFlow(w.gen.Spec())
	if err != nil {
		w.t.Fatal(err)
	}
	if _, err := net.PlaceBest(f); err != nil {
		if !errors.Is(err, netstate.ErrNoFeasiblePath) {
			w.t.Fatal(err)
		}
		if w.rng.Intn(2) == 0 {
			if err := net.Remove(f); err != nil {
				w.t.Fatal(err)
			}
		}
	}
}

// laneOps is the number of distinct operations step understands.
const laneOps = 14

// step applies one operation, chosen by op, to the world.
func (w *laneWorld) step(op byte) {
	t := w.t
	switch op % laneOps {
	case 0: // live arrival
		w.addPlaced(w.live)
	case 1: // live withdrawal, or re-placement of an unplaced flow
		if f := w.pick(w.live, false); f != nil {
			if f.Placed() {
				if err := w.live.Withdraw(f); err != nil {
					t.Fatal(err)
				}
			} else if _, err := w.live.PlaceBest(f); err != nil && !errors.Is(err, netstate.ErrNoFeasiblePath) {
				t.Fatal(err)
			}
		}
	case 2: // live departure
		if f := w.pick(w.live, false); f != nil {
			if err := w.live.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
	case 3: // live reroute onto another candidate (may not fit)
		if f := w.pick(w.live, true); f != nil {
			cands := w.live.Candidates(f)
			err := w.live.Reroute(f, cands[w.rng.Intn(len(cands))])
			if err != nil && !errors.Is(err, netstate.ErrNoFeasiblePath) {
				t.Fatal(err)
			}
		}
	case 4: // live commit: admission with migrations
		if _, err := w.liveP.Execute(w.event()); err != nil {
			t.Fatal(err)
		}
	case 5: // link repair, or failure of a link of some flow (the
		// affected flows are withdrawn)
		if len(w.down) > 0 && w.rng.Intn(2) == 0 {
			w.live.RestoreLinks(w.down[len(w.down)-1:])
			w.down = w.down[:len(w.down)-1]
			break
		}
		f := w.pick(w.live, true)
		if f == nil {
			break
		}
		links := f.Path().Links()
		l := links[w.rng.Intn(len(links))]
		w.down = append(w.down, l)
		affected, _ := w.live.FailLinks([]topology.LinkID{l})
		for _, f := range affected {
			if err := w.live.Withdraw(f); err != nil {
				t.Fatal(err)
			}
		}
	case 6: // lane probe: plan an event on the lane, then roll it back
		if _, err := w.laneP.Probe(w.event()); err != nil {
			t.Fatal(err)
		}
	case 7: // a probe that failed partway: lane writes left unrolled
		for i := w.rng.Intn(4); i >= 0; i-- {
			switch f := w.pick(w.lane, true); {
			case i%3 == 0 || f == nil:
				w.addPlaced(w.lane)
			case i%3 == 1:
				if err := w.lane.Withdraw(f); err != nil {
					t.Fatal(err)
				}
			default:
				if err := w.lane.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
		}
	case 8: // one lasting live change, then more than journalCap others
		// before the next sync
		g := w.pick(w.live, true)
		if g == nil {
			break
		}
		if err := w.live.Withdraw(g); err != nil {
			t.Fatal(err)
		}
		f := w.pick(w.live, true)
		if f == nil {
			break
		}
		path := f.Path()
		for i := 0; i < 2100; i++ {
			if err := w.live.Withdraw(f); err != nil {
				t.Fatal(err)
			}
			if err := w.live.Place(f, path); err != nil {
				t.Fatal(err)
			}
		}
	case 9: // more than journalCap distinct lane changes between syncs,
		// then one that lasts
		for i := 0; i < 4100; i++ {
			f, err := w.lane.AddFlow(w.gen.Spec())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.lane.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
		if f := w.pick(w.lane, true); f != nil {
			if err := w.lane.Withdraw(f); err != nil {
				t.Fatal(err)
			}
		}
	case 10: // sync from a foreign network, which must not take the delta path
		w.addPlaced(w.foreign)
		w.sync(w.foreign)
	case 11:
		w.sync(w.live)
	case 12: // live two-way split: commit the trigger, or roll it back
		if w.splitRes != nil {
			if err := w.liveP.RollbackExec(w.splitRes); err != nil {
				t.Fatal(err)
			}
			w.splitRes = nil
			break
		}
		res, err := w.liveP.Execute(w.splitEvent())
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || len(res.Admitted) != 1 || len(res.Admitted[0].Moves) != 1 || !res.Admitted[0].Moves[0].Split() {
			t.Fatalf("split scenario: trigger not admitted by one split (failed %d, admitted %d)", res.Failed, len(res.Admitted))
		}
		w.splitRes = res
		w.splits++
	case 13: // lane probe of the split trigger: split, then roll back
		if _, err := w.laneP.Probe(w.splitEvent()); err != nil {
			t.Fatal(err)
		}
	}
}

func (w *laneWorld) splitEvent() *core.Event {
	ev := core.NewEvent(w.nextEv, "split", 0, []flow.Spec{w.trigger})
	w.nextEv++
	return ev
}

// sync resyncs the lane from src and checks it against a fresh fork.
func (w *laneWorld) sync(src *netstate.Network) {
	w.t.Helper()
	w.lane.SyncFrom(src)
	w.syncs++
	requireLaneEquals(w.t, w.lane, src)
	// The synced lane and a fresh fork must plan identically.
	ev := w.event()
	fresh := src.Fork()
	want, err := core.NewPlanner(w.liveP.Migration().CloneFor(fresh), core.FailSkip).Probe(ev)
	if err != nil {
		w.t.Fatal(err)
	}
	got, err := core.NewPlanner(w.liveP.Migration().CloneFor(w.lane), core.FailSkip).Probe(ev)
	if err != nil {
		w.t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Feasible != want.Feasible ||
		got.Admittable != want.Admittable || got.Evals != want.Evals {
		w.t.Fatalf("probe on synced lane = %+v, on fresh fork = %+v", *got, *want)
	}
}

// requireLaneEquals fails unless lane holds exactly the state of a fresh
// src.Fork(): reservations, flows by ID (fields, path, placement), the
// flows on every link, and the next flow ID.
func requireLaneEquals(t testing.TB, lane, src *netstate.Network) {
	t.Helper()
	want := src.Fork()
	gl, gw := lane.Graph(), want.Graph()
	rl, rw := lane.Registry(), want.Registry()
	if rl.NextID() != rw.NextID() {
		t.Fatalf("lane next ID %d, fork %d", rl.NextID(), rw.NextID())
	}
	all, wantAll := rl.All(), rw.All()
	if len(all) != len(wantAll) {
		t.Fatalf("lane has %d flows, fork %d", len(all), len(wantAll))
	}
	for i, f := range all {
		w := wantAll[i]
		if f.ID != w.ID || f.Src != w.Src || f.Dst != w.Dst || f.Demand != w.Demand ||
			f.Size != w.Size || f.Event != w.Event || f.Placed() != w.Placed() || !f.Path().Equal(w.Path()) {
			t.Fatalf("lane flow %v path %v, fork %v path %v", f, f.Path(), w, w.Path())
		}
		if live, _ := src.Registry().Get(f.ID); live == f {
			t.Fatalf("lane shares flow %v with its source", f)
		}
	}
	for l := topology.LinkID(0); int(l) < gw.NumLinks(); l++ {
		if a, b := gl.Link(l), gw.Link(l); a.Reserved() != b.Reserved() || a.Down() != b.Down() {
			t.Fatalf("link %d: lane %v, fork %v", l, a, b)
		}
		on, wantOn := rl.FlowsOn(l), rw.FlowsOn(l)
		if len(on) != len(wantOn) {
			t.Fatalf("link %d: lane carries %d flows, fork %d", l, len(on), len(wantOn))
		}
		for i, f := range on {
			if f.ID != wantOn[i].ID {
				t.Fatalf("link %d: lane flow %d, fork %d", l, f.ID, wantOn[i].ID)
			}
			if g, _ := rl.Get(f.ID); g != f {
				t.Fatalf("link %d indexes a stale copy of flow %d", l, f.ID)
			}
		}
	}
}

// runLaneSync applies ops to a fresh world, then syncs once more.
func runLaneSync(t testing.TB, seed int64, ops []byte) *laneWorld {
	w := newLaneWorld(t, seed)
	for _, op := range ops {
		w.step(op)
	}
	w.sync(w.live)
	return w
}

// TestLaneSyncMatchesFork drives random interleavings of live updates,
// lane probes, leftovers of failed probes, journal overflows on both
// sides and foreign syncs, and requires every lane resync to produce
// exactly what a fresh fork of the source would.
func TestLaneSyncMatchesFork(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 0, 240)
		for len(ops) < cap(ops)-laneOps {
			op := byte(rng.Intn(laneOps))
			if op == 8 || op == 9 {
				op = 11 // the expensive overflows run once each, below
			}
			ops = append(ops, op)
		}
		ops = append(ops, 6, 7, 11, 8, 11, 9, 11, 10, 11, 8, 9, 11, 12, 11, 13, 12, 11)
		w := runLaneSync(t, seed, ops)
		if w.syncs < 20 || w.splits == 0 {
			t.Fatalf("seed %d: only %d syncs checked, %d splits committed", seed, w.syncs, w.splits)
		}
	}
}

// FuzzLaneSync explores operation sequences for TestLaneSyncMatchesFork's
// contract.
func FuzzLaneSync(f *testing.F) {
	f.Add(int64(1), []byte{0, 4, 6, 11, 7, 11, 5, 4, 6, 11, 12, 13, 11})
	f.Add(int64(2), []byte{4, 4, 6, 7, 3, 2, 1, 11, 8, 11, 10, 11, 12, 11, 12})
	f.Add(int64(3), []byte{9, 11, 5, 5, 4, 6, 7, 10, 10, 11, 13, 7, 11})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		runLaneSync(t, seed, ops)
	})
}
