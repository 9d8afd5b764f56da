package main

import (
	"path/filepath"
	"strings"
	"testing"

	"netupdate/internal/ctl"
)

func TestCheckResultsRejectsWrongOutputs(t *testing.T) {
	good := func() (*traffic, []ctl.EventStatus) {
		tr := &traffic{attempts: 2, accepted: map[int64]sentEvent{1: {flows: 2}, 2: {flows: 1}}}
		return tr, []ctl.EventStatus{
			{EventID: 1, State: ctl.StateDone, Flows: 2, Admitted: 1, Failed: 1},
			{EventID: 2, State: ctl.StateDone, Flows: 1, Admitted: 1},
		}
	}
	tr, results := good()
	if err := checkResults(tr, 2, results); err != nil {
		t.Fatalf("correct outputs rejected: %v", err)
	}
	for name, c := range map[string]struct {
		done   int
		mangle func(*traffic, []ctl.EventStatus) []ctl.EventStatus
		want   string
	}{
		"not all done":      {1, func(_ *traffic, r []ctl.EventStatus) []ctl.EventStatus { return r }, "events done"},
		"missing result":    {2, func(_ *traffic, r []ctl.EventStatus) []ctl.EventStatus { return r[:1] }, "results"},
		"repeated result":   {2, func(_ *traffic, r []ctl.EventStatus) []ctl.EventStatus { r[1].EventID = 1; return r }, "repeated"},
		"still queued":      {2, func(_ *traffic, r []ctl.EventStatus) []ctl.EventStatus { r[0].State = ctl.StateQueued; return r }, "state"},
		"wrong flow count":  {2, func(_ *traffic, r []ctl.EventStatus) []ctl.EventStatus { r[1].Flows = 3; return r }, "submitted"},
		"flows unaccounted": {2, func(_ *traffic, r []ctl.EventStatus) []ctl.EventStatus { r[0].Failed = 0; return r }, "admitted"},
		"lost outcome":      {2, func(tr *traffic, r []ctl.EventStatus) []ctl.EventStatus { tr.attempts = 3; return r }, "outcomes"},
	} {
		tr, results := good()
		err := checkResults(tr, c.done, c.mangle(tr, results))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error about %q", name, err, c.want)
		}
	}
}

func TestFingerprintMustRepeatAcrossRuns(t *testing.T) {
	work := t.TempDir()
	o := runOpts{seed: 4, dir: filepath.Join(work, "drain-k8-4-1", "untraced")}
	if err := checkFingerprint(o, "build-a", 5, "rounds=10"); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := checkFingerprint(o, "build-a", 5, "rounds=10"); err != nil {
		t.Fatalf("repeat run: %v", err)
	}
	if err := checkFingerprint(o, "build-a", 5, "rounds=11"); err == nil {
		t.Error("a run with different counters passed")
	}
	if err := checkFingerprint(o, "build-a", 6, "rounds=11"); err != nil {
		t.Errorf("another backlog count is another schedule: %v", err)
	}
}

func TestFingerprintIsKeptPerBuild(t *testing.T) {
	work := t.TempDir()
	o := runOpts{seed: 4, dir: filepath.Join(work, "drain-k8-4-1", "untraced")}
	// The parent and the change alternate in one checkout; the change
	// schedules differently on purpose.
	for i := 0; i < 2; i++ {
		if err := checkFingerprint(o, "parent", 5, "rounds=10"); err != nil {
			t.Fatalf("parent, round %d: %v", i, err)
		}
		if err := checkFingerprint(o, "change", 5, "rounds=9"); err != nil {
			t.Fatalf("change, round %d: %v", i, err)
		}
	}
	if err := checkFingerprint(o, "change", 5, "rounds=10"); err == nil {
		t.Error("the change's own schedule changed between its runs, and the gate passed")
	}
}

func TestBuildIDNamesTheBinary(t *testing.T) {
	a, err := buildID()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := buildID(); len(a) != 16 || a != b {
		t.Errorf("buildID = %q then %q, want one 16-digit ID", a, b)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 5.5, 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, %v; want 1, 2, 4", q1, q2, q3)
	}
}
