package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"netupdate/internal/ctl"
	"netupdate/internal/world"
)

// goldenWorld returns the pinned SHA-256 of the snapshot JSON of the
// world named name, from internal/world/testdata/worlds.golden.
func goldenWorld(t *testing.T, name string) string {
	t.Helper()
	f, err := os.Open("../../internal/world/testdata/worlds.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, n, ok := strings.Cut(sc.Text(), "  "); ok && n == name {
			return sum
		}
	}
	t.Fatalf("no golden for world %q", name)
	return ""
}

// TestSelfhostWorldGoldens requires the selfhost controller's world,
// before any event, to match its pinned digest.
func TestSelfhostWorldGoldens(t *testing.T) {
	cases := []struct {
		name string
		k    int
		util float64
		seed int64
	}{
		{"loadgen/k4-u0.3-s1", 4, 0.3, 1},
		{"loadgen/k4-u0.5-s7", 4, 0.5, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, err := startSelfhost(world.Config{
				K: tc.k, Util: tc.util, Seed: tc.seed, Tables: world.NoTables,
				Scheduler: "p-lmtf", Alpha: 4, Watermark: ctl.DefaultHighWatermark,
			}, "", "group", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			snap, err := srv.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got, want := hex.EncodeToString(sum[:]), goldenWorld(t, tc.name); got != want {
				t.Errorf("world digest %s, want %s", got, want)
			}
		})
	}
}
