package ctl

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// admissionGoldenFile pins the SHA-256 of the end state of every way an
// event reaches the engine: live admission without and with a WAL,
// recovery by pure fold and from a checkpoint, and a promoted follower.
// One "<digest>  <run>" line per run.
const admissionGoldenFile = "testdata/admission.golden"

var update = flag.Bool("update", false, "rewrite "+admissionGoldenFile+" from the current code")

// admissionStep is one lock-step unit of the golden workload; it returns
// only once the server is quiesced.
type admissionStep func(t *testing.T, c *Client)

// admissionWorkload interleaves the walWorkload chunks (batches plus
// install-timeout, link-down and link-up faults) with the admission
// shapes the chunks lack: a single OpSubmit, a batch mixing an invalid
// spec with valid ones, and a Retry-flagged batch. Each shape appears
// before and after crashAt, so both replay and live admission see it.
func admissionWorkload(ft *topology.FatTree) (steps []admissionStep, crashAt int) {
	chunks := walWorkload(ft, 5, 6, 3)
	extra := walWorkload(ft, 77, 2, 3)
	chunk := func(ch walChunk) admissionStep {
		return func(t *testing.T, c *Client) { playChunk(t, c, ch) }
	}
	specials := func(specs []EventSpec) []admissionStep {
		single := specs[0]
		single.Kind = ""
		single.Flows = append([]FlowSpec(nil), single.Flows...)
		single.Flows[0].SizeBytes = 1 << 20
		mixed := []EventSpec{specs[1], {Kind: "invalid", Flows: []FlowSpec{{Src: 0, Dst: 0, DemandBps: 1}}}, specs[2]}
		return []admissionStep{
			func(t *testing.T, c *Client) {
				id, err := c.Submit(single)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				waitAll(t, c, []int64{id})
			},
			func(t *testing.T, c *Client) { submitRaw(t, c, mixed, false, 2) },
			func(t *testing.T, c *Client) { submitRaw(t, c, specs, true, len(specs)) },
		}
	}
	steps = append(steps, chunk(chunks[0]))
	steps = append(steps, specials(extra[0].specs)...)
	steps = append(steps, chunk(chunks[1]), chunk(chunks[2]))
	crashAt = len(steps)
	steps = append(steps, chunk(chunks[3]))
	steps = append(steps, specials(extra[1].specs)...)
	steps = append(steps, chunk(chunks[4]), chunk(chunks[5]))
	return steps, crashAt
}

// submitRaw sends one submit-batch request as built (Retry flag
// included), requires wantOK accepted verdicts and waits them done.
func submitRaw(t *testing.T, c *Client, specs []EventSpec, retry bool, wantOK int) {
	t.Helper()
	resp := c.Do(Request{Op: OpSubmitBatch, Events: specs, Retry: retry})
	if !resp.OK || len(resp.Verdicts) != len(specs) {
		t.Fatalf("submit-batch: ok=%v error=%q verdicts=%d", resp.OK, resp.Error, len(resp.Verdicts))
	}
	var ids []int64
	for _, v := range resp.Verdicts {
		if v.OK {
			ids = append(ids, v.EventID)
		}
	}
	if len(ids) != wantOK {
		t.Fatalf("submit-batch accepted %d of %d, want %d: %+v", len(ids), len(specs), wantOK, resp.Verdicts)
	}
	waitAll(t, c, ids)
}

func waitAll(t *testing.T, c *Client, ids []int64) {
	t.Helper()
	for _, id := range ids {
		if _, err := c.WaitDone(id, 15*time.Second); err != nil {
			t.Fatalf("WaitDone(%d): %v", id, err)
		}
	}
}

// admissionDigest hashes a server's end state: the captureDigest JSON
// followed by the normTrace'd trace ring.
func admissionDigest(t *testing.T, srv *Server, c *Client) string {
	t.Helper()
	d, err := json.Marshal(captureDigest(t, srv, c))
	if err != nil {
		t.Fatal(err)
	}
	trace, err := c.Trace(0)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	tr, err := json.Marshal(normTrace(trace))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(d)
	h.Write(tr)
	return hex.EncodeToString(h.Sum(nil))
}

func readAdmissionGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(admissionGoldenFile)
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

// TestAdmissionGoldens plays one workload through every admission path
// and requires each end state to match its pinned digest byte for byte:
//
//	a-no-wal:             live admission, no WAL
//	b-wal-checkpointed:   live admission into a WAL with tight
//	                      checkpoints, streamed to a follower
//	c-pure-fold-recovery: a mid-run image of b with its checkpoint
//	                      removed, folded from genesis, then fed the rest
//	d-checkpoint-recovery: the same image restored from its checkpoint,
//	                      then fed the rest
//	e-promoted-follower:  the follower of b, promoted after b ends
//
// With -update it rewrites the goldens instead.
func TestAdmissionGoldens(t *testing.T) {
	const ckptEvery = 5
	got := map[string]string{}

	planner, scheduler, ft := buildWALWorld(t, true)
	srvA := mustNew(t, Config{Planner: planner, Scheduler: scheduler, Sim: sim.Config{InstallTime: time.Millisecond}})
	clientA, _ := serveAndDial(t, srvA)
	steps, crashAt := admissionWorkload(ft)
	for _, step := range steps {
		step(t, clientA)
	}
	got["a-no-wal"] = admissionDigest(t, srvA, clientA)

	leaderDir := filepath.Join(t.TempDir(), "leader")
	midDir := filepath.Join(t.TempDir(), "mid")
	srvB, clientB, addrB, _ := startReplLeader(t, leaderDir, ckptEvery, wal.WithKeepSegments())
	srvE, clientE := startReplFollower(t, filepath.Join(t.TempDir(), "follower"), addrB, srvB.walMeta, ckptEvery, 0)
	for i, step := range steps {
		if i == crashAt {
			copyDir(t, leaderDir, midDir)
		}
		step(t, clientB)
	}
	got["b-wal-checkpointed"] = admissionDigest(t, srvB, clientB)
	st, err := clientB.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestRetried != 6 || st.RepairEvents == 0 {
		t.Fatalf("workload misses an admission shape: %d retried, %d repair events", st.IngestRetried, st.RepairEvents)
	}
	waitCaughtUp(t, clientE, st.WALLastSeq)
	if err := srvB.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := clientE.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	got["e-promoted-follower"] = admissionDigest(t, srvE, clientE)

	mid, err := wal.Open(midDir, wal.WithKeepSegments())
	if err != nil {
		t.Fatal(err)
	}
	if mid.Checkpoint() == nil {
		t.Fatal("mid-run image holds no checkpoint")
	}
	foldDir := filepath.Join(t.TempDir(), "fold")
	buildPrefixDir(t, mid, foldDir, mid.LastSeq(), nil)
	srvC, clientC, recC, _ := startWALServer(t, foldDir, -1)
	if recC.CheckpointSeq != 0 || recC.ReplayedRecords != int(mid.LastSeq()) {
		t.Fatalf("pure fold: checkpoint seq %d, replayed %d of %d", recC.CheckpointSeq, recC.ReplayedRecords, mid.LastSeq())
	}
	srvD, clientD, recD, _ := startWALServer(t, midDir, ckptEvery)
	if recD.CheckpointSeq == 0 {
		t.Fatal("checkpointed recovery restored no checkpoint")
	}
	for _, step := range steps[crashAt:] {
		step(t, clientC)
		step(t, clientD)
	}
	got["c-pure-fold-recovery"] = admissionDigest(t, srvC, clientC)
	got["d-checkpoint-recovery"] = admissionDigest(t, srvD, clientD)

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
		if err := os.WriteFile(admissionGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readAdmissionGoldens(t)
	if len(want) != len(got) {
		t.Errorf("%d goldens, ran %d paths", len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: digest %s, want %s", name, sum, want[name])
		}
	}
}
