package ctl

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"netupdate/internal/sched"
)

func TestSubmitBatch(t *testing.T) {
	client, ft := startServer(t, sched.NewLMTF(2, 1), 0)
	events := make([]EventSpec, 6)
	for i := range events {
		events[i] = eventSpec(ft, 2+i%3, 5)
	}
	verdicts, overload, err := client.SubmitBatch(events)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if overload != nil {
		t.Fatalf("overload info on an empty queue: %+v", overload)
	}
	if len(verdicts) != len(events) {
		t.Fatalf("verdicts = %d, want %d", len(verdicts), len(events))
	}
	var prev int64
	for i, v := range verdicts {
		if !v.OK || v.EventID == 0 {
			t.Fatalf("verdict %d = %+v, want accepted", i, v)
		}
		if v.EventID <= prev {
			t.Errorf("verdict %d ID %d not increasing (prev %d)", i, v.EventID, prev)
		}
		prev = v.EventID
	}
	for _, v := range verdicts {
		if _, err := client.WaitDone(v.EventID, 5*time.Second); err != nil {
			t.Fatalf("WaitDone(%d): %v", v.EventID, err)
		}
	}
	results, err := client.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(events) {
		t.Errorf("results = %d, want %d", len(results), len(events))
	}
}

func TestSubmitBatchOverloadVerdicts(t *testing.T) {
	const watermark = 3
	client, ft := startServer(t, sched.FIFO{}, watermark)
	// One request larger than the watermark: the due prefix is admitted,
	// the remainder rejected — deterministically, because staging counts
	// within the request before the state loop runs any rounds.
	events := make([]EventSpec, 10)
	for i := range events {
		events[i] = eventSpec(ft, 2, 5)
	}
	verdicts, overload, err := client.SubmitBatch(events)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	var accepted, rejected int
	for i, v := range verdicts {
		switch {
		case v.OK:
			accepted++
			if i >= watermark {
				t.Errorf("verdict %d accepted past watermark", i)
			}
		case v.Overloaded:
			rejected++
			if !strings.Contains(v.Error, "overloaded") {
				t.Errorf("overload verdict %d error = %q", i, v.Error)
			}
		default:
			t.Errorf("verdict %d = %+v, want accepted or overloaded", i, v)
		}
	}
	if accepted != watermark || rejected != len(events)-watermark {
		t.Fatalf("accepted/rejected = %d/%d, want %d/%d",
			accepted, rejected, watermark, len(events)-watermark)
	}
	if overload == nil {
		t.Fatal("no overload info despite rejections")
	}
	if overload.Watermark != watermark || overload.QueueDepth < watermark {
		t.Errorf("overload = %+v, want watermark %d and depth >= it", overload, watermark)
	}
	if overload.RetryAfterMs < 5 {
		t.Errorf("retry-after hint %dms below the 5ms floor", overload.RetryAfterMs)
	}

	// Accepted events still complete, and stats account for every outcome.
	for _, v := range verdicts {
		if v.OK {
			if _, err := client.WaitDone(v.EventID, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.IngestWatermark != watermark {
		t.Errorf("stats watermark = %d, want %d", stats.IngestWatermark, watermark)
	}
	if stats.IngestAccepted != int64(accepted) || stats.IngestRejected != int64(rejected) {
		t.Errorf("stats accepted/rejected = %d/%d, want %d/%d",
			stats.IngestAccepted, stats.IngestRejected, accepted, rejected)
	}
	if stats.IngestBatches != 1 {
		t.Errorf("stats batches = %d, want 1", stats.IngestBatches)
	}
	if stats.IngestRetried != 0 {
		t.Errorf("stats retried = %d, want 0", stats.IngestRetried)
	}

	// The queue has drained; a marked resubmission of the rejected tail is
	// admitted and counted as retried.
	retryBatch := events[:2]
	verdicts2, _, err := client.submitBatch(retryBatch, true)
	if err != nil {
		t.Fatalf("retry submitBatch: %v", err)
	}
	for i, v := range verdicts2 {
		if !v.OK {
			t.Fatalf("retry verdict %d = %+v, want accepted", i, v)
		}
	}
	stats, err = client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.IngestRetried != int64(len(retryBatch)) {
		t.Errorf("stats retried = %d, want %d", stats.IngestRetried, len(retryBatch))
	}
}

func TestSubmitBatchValidationVerdicts(t *testing.T) {
	client, ft := startServer(t, sched.FIFO{}, 0)
	good := eventSpec(ft, 2, 5)
	bad := EventSpec{} // no flows
	verdicts, overload, err := client.SubmitBatch([]EventSpec{good, bad, good})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if overload != nil {
		t.Errorf("validation failure reported as overload: %+v", overload)
	}
	if !verdicts[0].OK || !verdicts[2].OK {
		t.Errorf("valid events rejected: %+v", verdicts)
	}
	if verdicts[1].OK || verdicts[1].Overloaded || verdicts[1].Error == "" {
		t.Errorf("invalid event verdict = %+v, want plain validation error", verdicts[1])
	}
}

// scriptedServer answers each decoded request with the next canned
// response, recording the requests it saw. It lets client-side overload
// handling be tested deterministically, without racing a live state loop.
func scriptedServer(t *testing.T, responses []Response) (*Client, *[]Request) {
	t.Helper()
	cli, srv := net.Pipe()
	reqs := &[]Request{}
	var mu sync.Mutex
	go func() {
		dec := json.NewDecoder(srv)
		enc := json.NewEncoder(srv)
		for _, resp := range responses {
			var req Request
			if err := dec.Decode(&req); err != nil {
				return
			}
			mu.Lock()
			*reqs = append(*reqs, req)
			mu.Unlock()
			if err := enc.Encode(resp); err != nil {
				return
			}
		}
		_ = srv.Close()
	}()
	c := NewClient(cli)
	t.Cleanup(func() { _ = c.Close() })
	return c, reqs
}

func TestOverloadErrorMapping(t *testing.T) {
	c, _ := scriptedServer(t, []Response{{
		OK:       false,
		Error:    "ctl: overloaded",
		Overload: &OverloadInfo{QueueDepth: 7, Watermark: 4, RetryAfterMs: 25},
	}})
	_, err := c.Submit(EventSpec{Flows: []FlowSpec{{Src: 0, Dst: 1, DemandBps: 1}}})
	if err == nil {
		t.Fatal("Submit succeeded, want overload error")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("errors.Is(err, ErrOverloaded) = false for %v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("errors.As(*OverloadError) = false for %v", err)
	}
	if oe.QueueDepth != 7 || oe.Watermark != 4 || oe.RetryAfter != 25*time.Millisecond {
		t.Errorf("OverloadError = %+v, want depth 7, watermark 4, 25ms", oe)
	}
}

func TestSubmitBatchRetryBackoff(t *testing.T) {
	events := []EventSpec{
		{Flows: []FlowSpec{{Src: 0, Dst: 1, DemandBps: 1}}},
		{Flows: []FlowSpec{{Src: 2, Dst: 3, DemandBps: 1}}},
		{Flows: []FlowSpec{{Src: 4, Dst: 5, DemandBps: 1}}},
	}
	c, reqs := scriptedServer(t, []Response{
		{
			OK: true,
			Verdicts: []SubmitVerdict{
				{OK: true, EventID: 1},
				{Error: "ctl: overloaded", Overloaded: true},
				{Error: "ctl: overloaded", Overloaded: true},
			},
			Overload: &OverloadInfo{QueueDepth: 9, Watermark: 8, RetryAfterMs: 1},
		},
		{
			OK: true,
			Verdicts: []SubmitVerdict{
				{OK: true, EventID: 2},
				{OK: true, EventID: 3},
			},
		},
	})
	ids, err := c.SubmitBatchRetry(events, 3)
	if err != nil {
		t.Fatalf("SubmitBatchRetry: %v", err)
	}
	if ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("ids = %v, want [1 2 3]", ids)
	}
	got := *reqs
	if len(got) != 2 {
		t.Fatalf("requests = %d, want 2", len(got))
	}
	if got[0].Retry {
		t.Error("first attempt marked as retry")
	}
	if !got[1].Retry {
		t.Error("resubmission not marked as retry")
	}
	if len(got[1].Events) != 2 {
		t.Errorf("resubmission carries %d events, want the 2 rejected", len(got[1].Events))
	}
}

func TestSubmitBatchRetryGivesUp(t *testing.T) {
	overloadedAll := Response{
		OK: true,
		Verdicts: []SubmitVerdict{
			{Error: "ctl: overloaded", Overloaded: true},
		},
		Overload: &OverloadInfo{QueueDepth: 10, Watermark: 8, RetryAfterMs: 1},
	}
	c, _ := scriptedServer(t, []Response{overloadedAll, overloadedAll})
	ids, err := c.SubmitBatchRetry([]EventSpec{
		{Flows: []FlowSpec{{Src: 0, Dst: 1, DemandBps: 1}}},
	}, 2)
	if err == nil {
		t.Fatal("SubmitBatchRetry succeeded, want overload error")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("errors.Is(err, ErrOverloaded) = false for %v", err)
	}
	if ids[0] != 0 {
		t.Errorf("ids = %v, want unaccepted", ids)
	}
}

func TestProtocolVersionNegotiation(t *testing.T) {
	// Unit level: the parser owns the version check.
	if _, err := ParseRequest([]byte(`{"v":1,"op":"ping"}`)); err != nil {
		t.Errorf("v1 ping rejected: %v", err)
	}
	_, err := ParseRequest([]byte(`{"v":2,"op":"ping"}`))
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Errorf("v2 ping error = %v, want ErrUnsupportedVersion", err)
	}

	// Wire level: the server answers the error and keeps the connection.
	client, _ := startServer(t, sched.FIFO{}, 0)
	conn, err := net.Dial("tcp", client.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)
	if err := enc.Encode(Request{Version: 2, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "unsupported protocol version") {
		t.Errorf("v2 response = %+v, want version rejection", resp)
	}
	if err := enc.Encode(Request{Version: 1, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Errorf("v1 ping after v2 reject = %+v, want OK", resp)
	}
}

// TestBurstAdmission drives many concurrent single submissions through
// the buffered command channel: everything below the watermark must be
// admitted (no spurious overloads) and complete.
func TestBurstAdmission(t *testing.T) {
	client, ft := startServer(t, sched.FIFO{}, 0)
	addr := client.conn.RemoteAddr().String()
	const conns = 4
	const perConn = 8
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < perConn; i++ {
				if _, err := c.Submit(eventSpec(ft, 2, 5)); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.IngestRejected != 0 {
			t.Fatalf("burst below watermark rejected %d events", stats.IngestRejected)
		}
		if stats.EventsDone == conns*perConn {
			if stats.IngestAccepted != conns*perConn {
				t.Fatalf("accepted = %d, want %d", stats.IngestAccepted, conns*perConn)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d events done", stats.EventsDone, conns*perConn)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
