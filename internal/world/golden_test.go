package world_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"netupdate/internal/ctl"
	"netupdate/internal/rules"
	"netupdate/internal/shard"
	"netupdate/internal/snapshot"
	"netupdate/internal/world"
)

// goldenFile pins the SHA-256 of the snapshot JSON of every world the
// daemons build before their first event, one "<digest>  <name>" line
// per world.
const goldenFile = "testdata/worlds.golden"

var update = flag.Bool("update", false, "rewrite "+goldenFile+" from the current code")

// builtWorlds are the single-engine goldens: the worlds cmd/updated and
// cmd/loadgen's selfhost controller build from their flags.
var builtWorlds = map[string]world.Config{
	"updated/k4-u0.3-s1":           {K: 4, Util: 0.3, Seed: 1, Tables: world.NoTables},
	"updated/k4-u0.5-s7-tables256": {K: 4, Util: 0.5, Seed: 7, Tables: 256},
	"loadgen/k4-u0.3-s1":           {K: 4, Util: 0.3, Seed: 1, Tables: world.NoTables},
	"loadgen/k4-u0.5-s7":           {K: 4, Util: 0.5, Seed: 7, Tables: world.NoTables},
}

func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func digest(t *testing.T, snap *snapshot.Snapshot) string {
	t.Helper()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func serverDigest(t *testing.T, srv *ctl.Server) string {
	t.Helper()
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return digest(t, snap)
}

// shardDigests builds the pinned shard-slot and cluster worlds.
func shardDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	cfg := shard.WorldConfig{K: 8, Util: 0.75, Scheduler: "p-lmtf", Alpha: 4, Seed: 1, Watermark: ctl.DefaultHighWatermark, Shards: 4}
	for id := 1; id <= cfg.Shards; id++ {
		w, err := shard.NewShardWorld(cfg, id)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("shard/k8-u0.75-n4-s1/%d", id)] = serverDigest(t, w.Server)
		if err := w.Server.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Shards = 2
	cl, err := shard.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, w := range cl.Worlds {
		out[fmt.Sprintf("cluster/k8-u0.75-n2-s1/%d", w.ID)] = serverDigest(t, w.Server)
	}
	return out
}

// TestWorldGoldens rebuilds every pinned world and requires its digest
// to match the golden byte for byte. With -update it rewrites the
// goldens instead.
func TestWorldGoldens(t *testing.T) {
	got := shardDigests(t)
	for name, cfg := range builtWorlds {
		w, err := world.Build(cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = digest(t, snapshot.Capture(w.Net))
	}
	if *update {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGoldens(t)
	if len(want) != len(got) {
		t.Errorf("%d goldens, rebuilt %d worlds", len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: digest %s, want %s", name, sum, want[name])
		}
	}
}

// TestBuildRefusesOverfullTables: a fill that overflows the attached
// rule tables is an error, not a silently thinner world.
func TestBuildRefusesOverfullTables(t *testing.T) {
	_, err := world.Build(world.Config{K: 4, Util: 0.5, Seed: 7, Tables: 8}, nil)
	if !errors.Is(err, rules.ErrTableFull) {
		t.Fatalf("Build with 8-entry tables = %v, want rules.ErrTableFull", err)
	}
}

// TestMetaRecordsNoTablesOnce: every way of asking for no tables is
// recorded as NoTables, so logs agree whichever negative value a daemon
// was configured with.
func TestMetaRecordsNoTablesOnce(t *testing.T) {
	cfg := world.Config{K: 4, Util: 0.3, Seed: 1, Tables: world.NoTables, Scheduler: "p-lmtf", Alpha: 4}
	s, err := cfg.NewScheduler()
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Meta(s)
	cfg.Tables = -5
	if got := cfg.Meta(s); *got != *want || got.Tables != world.NoTables {
		t.Errorf("meta with Tables -5 = %+v, want %+v", *got, *want)
	}
}
