package flow

import (
	"testing"

	"netupdate/internal/routing"
)

// requireSameRegistry fails unless got and want hold the same flows by
// ID (fields, path, placement), the same link index and the same next
// ID, with got's index pointing at got's own flows.
func requireSameRegistry(t *testing.T, got, want *Registry) {
	t.Helper()
	if got.next != want.next {
		t.Fatalf("next = %d, want %d", got.next, want.next)
	}
	if len(got.flows) != len(want.flows) {
		t.Fatalf("%d flows, want %d", len(got.flows), len(want.flows))
	}
	for id, w := range want.flows {
		g, ok := got.flows[id]
		if !ok {
			t.Fatalf("flow %d missing", id)
		}
		if g == w {
			t.Fatalf("flow %d shared with the source registry", id)
		}
		if g.ID != w.ID || g.Src != w.Src || g.Dst != w.Dst || g.Demand != w.Demand ||
			g.Size != w.Size || g.Event != w.Event || g.placed != w.placed || !g.path.Equal(w.path) {
			t.Fatalf("flow %d = %+v, want %+v", id, *g, *w)
		}
	}
	if len(got.onLink) != len(want.onLink) {
		t.Fatalf("%d indexed links, want %d", len(got.onLink), len(want.onLink))
	}
	for l, wm := range want.onLink {
		gm := got.onLink[l]
		if len(gm) != len(wm) {
			t.Fatalf("link %d indexes %d flows, want %d", l, len(gm), len(wm))
		}
		for id, f := range gm {
			if _, ok := wm[id]; !ok || f != got.flows[id] {
				t.Fatalf("link %d: flow %d wrongly indexed", l, id)
			}
		}
	}
}

// syncFixture returns a live registry with four flows, three placed,
// and a fork of it.
func syncFixture(t *testing.T) (live, fork *Registry, fs [4]*Flow) {
	t.Helper()
	_, full, prefix, hosts := testNet(t)
	live = NewRegistry()
	for i := range fs {
		fs[i] = addFlow(t, live, hosts[0], hosts[2])
	}
	for i, path := range []routing.Path{full, prefix, full} {
		if err := live.Bind(fs[i], path); err != nil {
			t.Fatal(err)
		}
	}
	return live, live.Fork(), fs
}

func TestRegistryJournal(t *testing.T) {
	live, fork, fs := syncFixture(t)
	// 4 adds + 3 binds.
	if live.seq != 7 {
		t.Fatalf("seq = %d, want 7", live.seq)
	}
	got, ok := live.AppendChangesSince(nil, 4)
	want := []ID{fs[0].ID, fs[1].ID, fs[2].ID}
	if !ok || len(got) != len(want) {
		t.Fatalf("changes since 4 = %v, %v; want %v", got, ok, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("changes since 4 = %v, want %v", got, want)
		}
	}
	if got, ok := live.AppendChangesSince(nil, live.seq); !ok || len(got) != 0 {
		t.Fatalf("changes since now = %v, %v; want none, true", got, ok)
	}
	// Forks keep no journal: any gap reads as lost history.
	if err := fork.Unbind(fork.flows[fs[0].ID]); err != nil {
		t.Fatal(err)
	}
	if _, ok := fork.AppendChangesSince(nil, 0); ok {
		t.Fatal("a fork served journal entries")
	}
	// Overflowing the ring loses the oldest history.
	f := fs[3]
	_, full, _, _ := testNet(t)
	for i := 0; i < journalCap; i++ {
		if err := live.Bind(f, full); err != nil {
			t.Fatal(err)
		}
		if err := live.Unbind(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := live.AppendChangesSince(nil, 7); ok {
		t.Fatal("journal claimed to cover more than journalCap changes")
	}
	if got, ok := live.AppendChangesSince(nil, live.seq-journalCap); !ok || len(got) != journalCap {
		t.Fatalf("last journalCap changes: %d entries, ok=%v", len(got), ok)
	}
}

func TestRegistrySyncFromReplaysOnlyChanges(t *testing.T) {
	live, fork, fs := syncFixture(t)
	_, full, prefix, hosts := testNet(t)
	untouched := fork.flows[fs[1].ID]

	// Live: move fs[0], remove fs[2], add one placed flow.
	if err := live.Unbind(fs[0]); err != nil {
		t.Fatal(err)
	}
	if err := live.Bind(fs[0], prefix); err != nil {
		t.Fatal(err)
	}
	if err := live.Remove(fs[2]); err != nil {
		t.Fatal(err)
	}
	nf := addFlow(t, live, hosts[0], hosts[2])
	if err := live.Bind(nf, full); err != nil {
		t.Fatal(err)
	}
	// Fork: a trial flow left behind and fs[3] placed, as a probe that
	// failed halfway might leave them.
	trial := addFlow(t, fork, hosts[0], hosts[2])
	if err := fork.Bind(trial, full); err != nil {
		t.Fatal(err)
	}
	if err := fork.Bind(fork.flows[fs[3].ID], full); err != nil {
		t.Fatal(err)
	}

	fork.SyncFrom(live)
	requireSameRegistry(t, fork, live.Fork())
	if fork.flows[fs[1].ID] != untouched {
		t.Error("an unchanged flow was re-cloned")
	}
	if len(fork.dirty) != 0 || fork.syncSeq != live.seq {
		t.Errorf("sync state not reset: %d dirty, syncSeq %d of %d", len(fork.dirty), fork.syncSeq, live.seq)
	}
	// A second sync with nothing changed on either side is a no-op.
	fork.SyncFrom(live)
	requireSameRegistry(t, fork, live.Fork())
	if fork.flows[fs[1].ID] != untouched {
		t.Error("an idle resync re-cloned flows")
	}
}

func TestRegistrySyncFromFallsBackToClone(t *testing.T) {
	_, full, _, hosts := testNet(t)
	cases := []struct {
		name string
		// prep mutates live/fork and returns the registry to sync from.
		prep func(live, fork *Registry) *Registry
	}{
		{"never forked", func(live, _ *Registry) *Registry { return live }},
		{"foreign source", func(live, _ *Registry) *Registry { return live.Fork() }},
		{"journal gap", func(live, _ *Registry) *Registry {
			f := addFlow(t, live, hosts[0], hosts[2])
			for i := 0; i < journalCap; i++ {
				if err := live.Bind(f, full); err != nil {
					t.Fatal(err)
				}
				if err := live.Unbind(f); err != nil {
					t.Fatal(err)
				}
			}
			return live
		}},
		{"fork churn", func(live, fork *Registry) *Registry {
			for i := 0; i <= journalCap; i++ {
				if err := fork.Remove(addFlow(t, fork, hosts[0], hosts[2])); err != nil {
					t.Fatal(err)
				}
			}
			if len(fork.dirty) != journalCap {
				t.Fatalf("dirty set holds %d IDs, want it capped at %d", len(fork.dirty), journalCap)
			}
			return live
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live, fork, fs := syncFixture(t)
			if tc.name == "never forked" {
				fork = NewRegistry()
			}
			src := tc.prep(live, fork)
			before := fork.flows[fs[1].ID]
			fork.SyncFrom(src)
			requireSameRegistry(t, fork, src.Fork())
			if fork.flows[fs[1].ID] == before {
				t.Error("SyncFrom patched in place; want a full clone")
			}
			if fork.origin != src || len(fork.dirty) != 0 {
				t.Error("clone did not re-anchor the fork on src")
			}
			// From now on the fork syncs incrementally from src, except
			// from another fork, which keeps no journal.
			kept := fork.flows[fs[1].ID]
			f := addFlow(t, src, hosts[0], hosts[2])
			if err := src.Bind(f, full); err != nil {
				t.Fatal(err)
			}
			fork.SyncFrom(src)
			requireSameRegistry(t, fork, src.Fork())
			if tc.name != "foreign source" && fork.flows[fs[1].ID] != kept {
				t.Error("resync after the fallback cloned again")
			}
		})
	}
}
