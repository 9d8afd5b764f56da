package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"netupdate/internal/topology"
)

func fatTree(t *testing.T, k int) *topology.FatTree {
	t.Helper()
	ft, err := topology.NewFatTree(k, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// inputsOf encodes every workload's inputs for one seed.
func inputsOf(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	k4, k8 := fatTree(t, 4), fatTree(t, 8)
	drain, err := paperBacklog(seed, k8.Hosts(), drainBacklog, drainBacklog)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for name, bs := range map[string][]batch{
		"steady":  steadyInputs(seed, k4.Hosts(), steadyRate, 2*time.Second, steadyBatch),
		"drain":   drain,
		"sharded": podBacklog(seed, k8, shardBacklog, shardBacklog, shardLocalShare),
	} {
		data, err := json.Marshal(bs)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

func TestInputsRepeatPerSeed(t *testing.T) {
	a, b, c := inputsOf(t, 7), inputsOf(t, 7), inputsOf(t, 8)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: seed 7 gave different inputs on a second draw", name)
		}
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

func TestShardedPodLocalShare(t *testing.T) {
	ft := fatTree(t, 8)
	for seed := int64(1); seed <= 10; seed++ {
		bs := podBacklog(seed, ft, shardBacklog, shardBacklog, shardLocalShare)
		if got := podLocalShare(ft, bs); math.Abs(got-shardLocalShare) > 0.02 {
			t.Errorf("seed %d: pod-local share %.3f, want %.2f ± 0.02", seed, got, shardLocalShare)
		}
	}
}

func TestSteadyScheduleIsPoisson(t *testing.T) {
	ft := fatTree(t, 4)
	window := 4 * time.Second
	bs := steadyInputs(3, ft.Hosts(), steadyRate, window, steadyBatch)
	n := eventCount(bs)
	want := steadyRate * window.Seconds()
	if math.Abs(float64(n)-want) > 4*math.Sqrt(want) {
		t.Errorf("%d events in %v, want about %.0f", n, window, want)
	}
	for i, b := range bs {
		if i > 0 && b.Due < bs[i-1].Due {
			t.Fatalf("batch %d due at %v, before batch %d at %v", i, b.Due, i-1, bs[i-1].Due)
		}
		if b.Due > window {
			t.Fatalf("batch %d due at %v, after the %v window", i, b.Due, window)
		}
		for _, ev := range b.Events {
			if len(ev.Flows) < 1 || len(ev.Flows) > 4 {
				t.Fatalf("event with %d flows, want 1-4", len(ev.Flows))
			}
		}
	}
}

// TestLatencyFromScheduledTime checks that an event is timed from when
// its batch was due, not from when the generator got to send it, and
// that an event that never completed counts against every percentile.
func TestLatencyFromScheduledTime(t *testing.T) {
	start := time.Unix(100, 0)
	tr := &traffic{start: start, attempts: 4, accepted: map[int64]sentEvent{}}
	done := map[int64]int64{}
	for id := int64(1); id <= 3; id++ {
		due := start.Add(time.Duration(id) * time.Millisecond)
		tr.accepted[id] = sentEvent{dueNs: due.UnixNano(), flows: 1}
		done[id] = due.Add(time.Duration(id) * time.Millisecond).UnixNano()
	}
	tr.accepted[4] = sentEvent{dueNs: start.UnixNano(), flows: 1}
	lat, last := tr.latencies(func(id int64) (int64, bool) {
		ns, ok := done[id]
		return ns, ok
	})
	if want := start.Add(6 * time.Millisecond); !last.Equal(want) {
		t.Errorf("last completion %v, want %v", last, want)
	}
	if got := percentile(lat, 0.5); got != float64(2*time.Millisecond) {
		t.Errorf("median %v, want 2ms", time.Duration(got))
	}
	if got := percentile(lat, 1); !math.IsInf(got, 1) {
		t.Errorf("max %v, want +Inf for the unfinished event", got)
	}
}

// TestOpenLoopRunReportsLateness drives a short traced steady-k4 run and
// checks the generator reports how late it ran, along with every other
// per-layer metric.
func TestOpenLoopRunReportsLateness(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a controller")
	}
	o := runOpts{seed: 1, seconds: 1, dir: t.TempDir(), spans: newSpanLog()}
	out, err := openLoop(o, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if _, ok := out.layer[d.name]; !ok && d.name != "bench.trace_overhead_pct" {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	for _, d := range endToEnd {
		if v, ok := out.e2e[d.name]; !ok || v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want a positive value", d.name, v)
		}
	}
	if late := out.layer["loadgen.late_p99_ms"]; late.Value <= 0 {
		t.Errorf("loadgen.late_p99_ms = %v, want a measured lateness", late.Value)
	}
	if n := len(o.spans.durations("ctl.ack")); n != len(steadyInputs(1000, fatTree(t, 4).Hosts(), steadyRate, time.Second, steadyBatch)) {
		t.Errorf("%d ctl.ack spans, want one per batch", n)
	}
}

// eventCount is the number of events across bs.
func eventCount(bs []batch) int {
	n := 0
	for _, b := range bs {
		n += len(b.Events)
	}
	return n
}
