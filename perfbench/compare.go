package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareMain compares two sets of runs. Each set is a directory holding
// one subdirectory per workload, and in it one file per run whose last
// line is that run's result (series.sh writes this layout). Runs with the
// same file name in both sets are paired. End-to-end metrics are judged
// against their bounds; per-layer metrics, present when the runs were
// traced, have no bound and are judged by the rule for claiming a gain.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [--bench BENCHMARK.json] <runs-A> <runs-B>")
		return 2
	}
	var bench benchFile
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", *benchPath, err)
		return 1
	}
	a, b := fs.Arg(0), fs.Arg(1)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] n\tB median [q1, q3] n\tB worse by\tbound\tpairs B won/lost/tied\tverdict")
	disagree := false
	for _, wl := range bench.Workloads {
		runsA, errA := loadRuns(filepath.Join(a, wl.Name))
		runsB, errB := loadRuns(filepath.Join(b, wl.Name))
		if err := errors.Join(errA, errB); err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 1
		}
		if len(runsA) == 0 || len(runsB) == 0 {
			continue
		}
		for _, m := range bench.EndToEnd {
			va, vb := runsA.values(m.Name), runsB.values(m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			c := compareMetric(va, vb, m.Bound, m.Better == "higher")
			won, lost, tied := pairWins(runsA, runsB, m.Name, m.Better == "higher")
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%d/%d/%d\t%s\n", wl.Name, m.Name,
				describe(va), describe(vb), 100*c.change, 100*m.Bound, won, lost, tied, c.verdict)
			if c.verdict != "agree" {
				disagree = true
			}
		}
		for _, m := range bench.PerLayer {
			va, vb := runsA.values(m.Name), runsB.values(m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			won, lost, tied := pairWins(runsA, runsB, m.Name, m.Better == "higher")
			c := claimMetric(va, vb, won, lost, tied, m.Better == "higher")
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t-\t%d/%d/%d\t%s\n", wl.Name, m.Name,
				describe(va), describe(vb), 100*c.change, won, lost, tied, c.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	if disagree {
		return 3
	}
	return 0
}

// runSet is one side's runs of one workload, keyed by file name.
type runSet map[string]result

// loadRuns reads the runs (*.json) in dir; a workload without a
// directory has no runs.
func loadRuns(dir string) (runSet, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	runs := runSet{}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		r, err := lastResult(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		runs[e.Name()] = r
	}
	return runs, nil
}

// lastResult parses the last line of a run's output.
func lastResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, err
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func (rs runSet) values(name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func describe(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", q2, q1, q3, len(xs))
}

// comparison is one metric's verdict. change is B's median relative to
// A's, signed so that positive means B is worse.
type comparison struct {
	change  float64
	verdict string
}

// compareMetric says whether B's median is within bound of A's. A side
// whose spread (quartile distance over median) exceeds the bound cannot
// resolve a change of that size: the metric is unresolved.
func compareMetric(a, b []float64, bound float64, higherBetter bool) comparison {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	c := comparison{change: ratio(mb-ma, ma)}
	if higherBetter {
		c.change = -c.change
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		c.verdict = "unresolved"
	case c.change > bound:
		c.verdict = "B worse"
	case c.change < -bound:
		c.verdict = "B better"
	default:
		c.verdict = "agree"
	}
	return c
}

// Claiming a change needs at least claimPairs pairs, of which B wins (or
// loses) at least claimShare.
const (
	claimPairs = 10
	claimShare = 0.9
)

// claimMetric judges a metric that has no bound: B is better (or worse)
// when it wins (or loses) at least nine in ten of at least ten pairs,
// ties counting for neither, and the medians differ by more than A's
// spread.
func claimMetric(a, b []float64, won, lost, tied int, higherBetter bool) comparison {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	c := comparison{change: ratio(mb-ma, ma), verdict: "no change shown"}
	if higherBetter {
		c.change = -c.change
	}
	pairs := won + lost + tied
	apart := math.Abs(c.change) > spread(a)
	switch {
	case pairs < claimPairs:
		c.verdict = "too few pairs"
	case apart && float64(won) >= claimShare*float64(pairs) && c.change < 0:
		c.verdict = "B better"
	case apart && float64(lost) >= claimShare*float64(pairs) && c.change > 0:
		c.verdict = "B worse"
	}
	return c
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// pairWins counts, over runs present in both sets under one file name,
// how often B beat A, lost to it, or tied.
func pairWins(a, b runSet, name string, higherBetter bool) (won, lost, tied int) {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rb, ok := b[k]
		va, okA := a[k].Metrics[name]
		vb, okB := rb.Metrics[name]
		if !ok || !okA || !okB {
			continue
		}
		better := vb.Value < va.Value
		if higherBetter {
			better = vb.Value > va.Value
		}
		switch {
		case va.Value == vb.Value:
			tied++
		case better:
			won++
		default:
			lost++
		}
	}
	return won, lost, tied
}
