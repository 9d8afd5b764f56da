package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/ctl"
	"netupdate/internal/sched"
)

// Test schedulers covering every combination of the optional
// interfaces.
type basePolicy struct{}

func (basePolicy) Name() string { return "base" }
func (basePolicy) Pick(*sched.Queue, *core.Planner) (sched.Decision, error) {
	return sched.Decision{}, sched.ErrEmptyQueue
}

type withProber struct{ basePolicy }

func (withProber) SetProbes(int)                               {}
func (withProber) ProbeEngine(*core.Planner) *core.ProbeEngine { return nil }

type withRecorder struct{ basePolicy }

func (withRecorder) SetRecordProbes(bool) {}

type withRNG struct{ basePolicy }

func (withRNG) RNGDraws() int64  { return 0 }
func (withRNG) RestoreRNG(int64) {}

type withAll struct {
	withProber
	withRecorder
	withRNG
}

func (withAll) Name() string { return "all" }
func (withAll) Pick(*sched.Queue, *core.Planner) (sched.Decision, error) {
	return sched.Decision{}, sched.ErrEmptyQueue
}

type withProberRNG struct {
	withProber
	withRNG
}

func (withProberRNG) Name() string { return "prober-rng" }
func (withProberRNG) Pick(*sched.Queue, *core.Planner) (sched.Decision, error) {
	return sched.Decision{}, sched.ErrEmptyQueue
}

func satisfied(s sched.Scheduler) [3]bool {
	_, cp := s.(sched.CostProber)
	_, pr := s.(sched.ProbeRecorder)
	_, rc := s.(rngCarrier)
	return [3]bool{cp, pr, rc}
}

func TestWrappedSchedulerKeepsOptionalInterfaces(t *testing.T) {
	policies := []sched.Scheduler{basePolicy{}, withProber{}, withRecorder{}, withRNG{}, withAll{}, withProberRNG{}}
	for _, name := range sched.Names() {
		s, err := sched.New(name)
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, s)
	}
	for _, s := range policies {
		w := wrapScheduler(s, nil, &pickCounts{})
		if got, want := satisfied(w), satisfied(s); got != want {
			t.Errorf("%s (%T): wrapper satisfies [CostProber ProbeRecorder rngCarrier] = %v, policy %v", s.Name(), s, got, want)
		}
		if w.Name() != s.Name() {
			t.Errorf("wrapper of %s reports name %q", s.Name(), w.Name())
		}
	}
}

var probeWallTime = regexp.MustCompile(`"wall_time_ns":[0-9]+`)

// TestTracedDurableCheckpointsIdentical runs durable-k4's world and
// inputs twice, untraced and with the timing scheduler, and requires the
// checkpoints the controller writes to be byte-identical. The inputs go
// to the controller in one request, so that both runs schedule the same
// events in the same rounds whatever the wall-clock timing.
func TestTracedDurableCheckpointsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a controller")
	}
	ft := fatTree(t, 4)
	var specs []ctl.EventSpec
	for _, b := range steadyInputs(5, ft.Hosts(), steadyRate, 2*time.Second, steadyBatch) {
		specs = append(specs, b.Events...)
	}
	bs := []batch{{Events: specs}}
	dir := t.TempDir()
	checkpoint := func(name string, spans *spanLog) []byte {
		sink := newCompletions()
		sp := serverSpec{k: 4, util: 0.3, seed: 5, walDir: filepath.Join(dir, name), sink: sink}
		if spans != nil {
			sp.wrap = func(s sched.Scheduler) sched.Scheduler { return wrapScheduler(s, spans, &pickCounts{}) }
		}
		sv, _, err := startServer(sp)
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Close()
		tr, err := send(sv.addr, 1, bs, spans, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := sink.wait(len(tr.accepted), time.Minute); n != len(tr.accepted) {
			t.Fatalf("%d of %d accepted events done", n, len(tr.accepted))
		}
		if err := sv.srv.ForceCheckpoint(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(sp.walDir, "checkpoint.json"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	spans := newSpanLog()
	untraced, traced := checkpoint("untraced", nil), checkpoint("traced", spans)
	if n := len(probeWallTime.FindAll(untraced, -1)); n != 1 {
		t.Fatalf("checkpoint holds %d probe wall times, want 1", n)
	}
	if len(spans.durations("sched.pick")) == 0 {
		t.Fatal("traced run recorded no sched.pick spans")
	}
	// The checkpoint records the probe engine's wall-clock time, which no
	// two runs share; every other byte must match.
	untraced, traced = probeWallTime.ReplaceAll(untraced, nil), probeWallTime.ReplaceAll(traced, nil)
	if !bytes.Equal(untraced, traced) {
		t.Errorf("checkpoints differ: untraced %d bytes, traced %d bytes", len(untraced), len(traced))
	}
}

// fakeBackend answers with canned values.
type fakeBackend struct {
	ctl.Backend // unimplemented methods panic
	resp        ctl.Response
	verdicts    []ctl.SubmitVerdict
	overload    *ctl.OverloadInfo
	err         error
}

func (f *fakeBackend) Do(ctl.Request) ctl.Response { return f.resp }
func (f *fakeBackend) SubmitBatch([]ctl.EventSpec) ([]ctl.SubmitVerdict, *ctl.OverloadInfo, error) {
	return f.verdicts, f.overload, f.err
}

func TestTimedBackendPassesResponsesThrough(t *testing.T) {
	fake := &fakeBackend{
		resp: ctl.Response{OK: true, Verdicts: []ctl.SubmitVerdict{{OK: true, EventID: 9, Shard: 2}, {Error: "full", Overloaded: true}},
			Overload: &ctl.OverloadInfo{QueueDepth: 3, Watermark: 4, RetryAfterMs: 5}},
		verdicts: []ctl.SubmitVerdict{{OK: true, EventID: 11}},
		overload: &ctl.OverloadInfo{QueueDepth: 1},
		err:      errors.New("backend down"),
	}
	spans := newSpanLog()
	hs := &handleSpans{spans: spans}
	b := &timedBackend{Backend: fake, handle: hs}
	handle := hs.wrap(func(req ctl.Request, _ int64) ctl.Response { return b.Do(req) })

	if got := handle(ctl.Request{Op: ctl.OpSubmitBatch}, 0); !reflect.DeepEqual(got, fake.resp) {
		t.Errorf("Do through the gateway handler = %+v, want %+v", got, fake.resp)
	}
	v, o, err := b.SubmitBatch(nil)
	if !reflect.DeepEqual(v, fake.verdicts) || o != fake.overload || err != fake.err {
		t.Errorf("SubmitBatch = %v, %v, %v; want %v, %v, %v", v, o, err, fake.verdicts, fake.overload, fake.err)
	}
	handles, calls := spans.durations("shard.handle"), spans.durations("shard.backend")
	if len(handles) != 1 || len(calls) != 2 {
		t.Fatalf("%d handle and %d backend spans, want 1 and 2", len(handles), len(calls))
	}
	var parent uint64
	for _, s := range spans.spans {
		if s.Name == "shard.handle" {
			parent = s.ID
		}
	}
	if spans.spans[0].Parent != parent || spans.spans[0].Trace != 1 {
		t.Errorf("backend call inside the handler has parent %d trace %d, want parent %d trace 1",
			spans.spans[0].Parent, spans.spans[0].Trace, parent)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := l.newID()
	l.record(0, "child", 1, parent, at(1), at(3))
	l.record(0, "child", 1, parent, at(2), at(4))  // overlaps the first
	l.record(0, "child", 1, parent, at(8), at(12)) // runs past the parent
	l.record(parent, "parent", 1, 0, at(0), at(10))
	if got := l.selfTimes("parent"); len(got) != 1 || got[0] != float64(5*time.Millisecond) {
		t.Errorf("self time %v, want [5ms]", got)
	}
}
