package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"netupdate/internal/ctl"
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

// TestDaemonWorldGoldens boots the daemon in its single-engine and
// shard-engine modes and requires the world each one serves before any
// event to match its pinned digest.
func TestDaemonWorldGoldens(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"updated/k4-u0.3-s1", []string{"-k", "4", "-util", "0.3", "-seed", "1"}},
		{"updated/k4-u0.5-s7-tables256", []string{"-k", "4", "-util", "0.5", "-seed", "7", "-tables", "256"}},
		{"shard/k8-u0.75-n4-s1/1", []string{"-k", "8", "-util", "0.75", "-seed", "1", "-shard-id", "1", "-shard-of", "4"}},
		{"shard/k8-u0.75-n4-s1/4", []string{"-k", "8", "-util", "0.75", "-seed", "1", "-shard-id", "4", "-shard-of", "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, _, stop, done := bootDaemon(t, append([]string{"-addr", "127.0.0.1:0"}, tc.args...))
			defer shutdownDaemon(t, stop, done)
			c, err := ctl.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			snap, err := c.Snapshot()
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

// TestDaemonRecoversLoadgenLog: the load generator's selfhost controller
// and the daemon derive one WAL meta from the same world flags, so a log
// the former writes is replayed by the latter instead of being refused
// as a different world.
func TestDaemonRecoversLoadgenLog(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the loadgen binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "loadgen")
	if out, err := exec.Command("go", "build", "-o", bin, "../loadgen").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	walDir := filepath.Join(t.TempDir(), "wal")
	worldFlags := []string{"-k", "4", "-util", "0.3", "-seed", "3"}
	out, err := exec.Command(bin, append([]string{"-selfhost", "-wal-dir", walDir,
		"-rate", "200", "-duration", "300ms", "-json"}, worldFlags...)...).Output()
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out)
	}
	var sum struct {
		Accepted int64 `json:"accepted"`
	}
	if err := json.Unmarshal(out, &sum); err != nil || sum.Accepted == 0 {
		t.Fatalf("loadgen summary %s: accepted %d, err %v", out, sum.Accepted, err)
	}

	addr, _, stop, done := bootDaemon(t, append([]string{"-addr", "127.0.0.1:0", "-wal-dir", walDir}, worldFlags...))
	defer shutdownDaemon(t, stop, done)
	c, err := ctl.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if int64(st.EventsDone) != sum.Accepted {
		t.Errorf("daemon recovered %d events, loadgen had %d accepted", st.EventsDone, sum.Accepted)
	}
}
