package ctl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// TestCheckpointBytesDeterministic feeds one lock-step workload to two
// controllers and requires their checkpoints to match byte for byte:
// nothing wall-clock (probe wall time, overload refusals) may be frozen
// into the fold state.
func TestCheckpointBytesDeterministic(t *testing.T) {
	var ckpts [2][]byte
	for i := range ckpts {
		dir := filepath.Join(t.TempDir(), "wal")
		srv, client, _, ft := startWALServer(t, dir, -1)
		for _, ch := range walWorkload(ft, 9, 4, 3) {
			playChunk(t, client, ch)
		}
		if err := srv.ForceCheckpoint(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
		if err != nil {
			t.Fatal(err)
		}
		ckpts[i] = data
	}
	if !bytes.Equal(ckpts[0], ckpts[1]) {
		t.Fatalf("same input, different checkpoints:\n%s\n%s", ckpts[0], ckpts[1])
	}
	if bytes.Contains(ckpts[0], []byte("wall_time")) {
		t.Error("checkpoint carries a wall-clock probe timer")
	}
}

// TestIngestRejectedAgreesAcrossRecovery overloads a leader past its
// watermark, then recovers its log by genesis fold and from a
// checkpoint and promotes its follower. Refusals never reach the log,
// so the rejected counter is process-local: every recovered process
// must read the same count (zero), whichever path rebuilt it.
func TestIngestRejectedAgreesAcrossRecovery(t *testing.T) {
	const watermark = 2
	leaderDir := filepath.Join(t.TempDir(), "leader")
	leader, leaderClient, leaderAddr, _, ft := startWatermarkServer(t, leaderDir, watermark)
	_, followerClient := startReplFollower(t, filepath.Join(t.TempDir(), "follower"), leaderAddr, leader.walMeta, -1, 0)

	// Each batch of 5 admits watermark events and refuses the rest.
	const batches = 3
	for _, ch := range walWorkload(ft, 21, batches, 5) {
		submitRaw(t, leaderClient, ch.specs, false, watermark)
	}
	if err := leader.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := leaderClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(batches * (5 - watermark)); st.IngestRejected != want {
		t.Fatalf("leader rejected %d, want %d", st.IngestRejected, want)
	}
	waitCaughtUp(t, followerClient, st.WALLastSeq)
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	hist, err := wal.Open(leaderDir, wal.WithKeepSegments())
	if err != nil {
		t.Fatal(err)
	}
	if hist.Checkpoint() == nil {
		t.Fatal("leader log holds no checkpoint")
	}
	foldDir := filepath.Join(t.TempDir(), "fold")
	buildPrefixDir(t, hist, foldDir, hist.LastSeq(), nil)
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	copyDir(t, leaderDir, ckptDir)

	_, foldClient, _, foldRec, _ := startWatermarkServer(t, foldDir, watermark)
	_, ckptClient, _, ckptRec, _ := startWatermarkServer(t, ckptDir, watermark)
	if foldRec.CheckpointSeq != 0 || ckptRec.CheckpointSeq == 0 {
		t.Fatalf("recovery paths: fold from checkpoint seq %d, checkpointed from %d", foldRec.CheckpointSeq, ckptRec.CheckpointSeq)
	}
	if _, err := followerClient.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	for name, c := range map[string]*Client{"genesis fold": foldClient, "checkpointed recovery": ckptClient, "promoted follower": followerClient} {
		got, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if got.IngestRejected != 0 || got.IngestAccepted != st.IngestAccepted {
			t.Errorf("%s: accepted/rejected %d/%d, want %d/0", name, got.IngestAccepted, got.IngestRejected, st.IngestAccepted)
		}
	}
}

// startWatermarkServer brings up a replication leader with the given
// intake watermark over a keep-segments WAL in dir, recovering first
// when dir holds history.
func startWatermarkServer(t *testing.T, dir string, watermark int) (*Server, *Client, string, *RecoveryInfo, *topology.FatTree) {
	t.Helper()
	log, err := wal.Open(dir, wal.WithKeepSegments())
	if err != nil {
		t.Fatal(err)
	}
	planner, scheduler, ft := buildWALWorld(t, log.Checkpoint() == nil)
	srv, rec, err := New(Config{Planner: planner, Scheduler: scheduler, Sim: sim.Config{InstallTime: time.Millisecond},
		Watermark:   watermark,
		Replication: ReplicationConfig{HeartbeatEvery: 50 * time.Millisecond},
		WAL:         &WALConfig{Log: log, CheckpointEvery: -1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	client, addr := serveAndDial(t, srv)
	return srv, client, addr, rec, ft
}
