// Command perfbench is the repository's benchmark: it runs one named
// workload against the in-process update controller, driven over the
// ctl v2 wire from a seed, checks that the controller's outputs are
// correct, and prints one JSON result line.
//
//	perfbench --workload steady-k4 --seed 1 --seconds 20 --trace 0
//	perfbench compare <runs-A> <runs-B>
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with the benchmark's own tracing off. With --trace 1 the workload runs
// twice, untraced and then traced, each for half of --seconds, and the
// result carries the per-layer metrics of the traced run plus
// bench.trace_overhead_pct; the traced run's spans are written to
// <workdir>/spans. METRICS.md describes the workloads and every metric.
// A run that fails its correctness gate prints no result and exits 1.
//
// Run it through run.sh, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported value and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 20, "measurement length in seconds")
		trace   = fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
		workDir = fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for logs and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	dir := filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	o := runOpts{seed: *seed, seconds: *seconds, dir: dir}
	var res *result
	var err error
	if *trace == 0 {
		res, err = runUntraced(wl, o)
	} else {
		res, err = runTraced(wl, o, filepath.Join(*workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// pass runs the workload once in its own scratch directory.
func pass(wl workload, o runOpts, name string) (*outcome, error) {
	o.dir = filepath.Join(o.dir, name)
	if err := os.Mkdir(o.dir, 0o755); err != nil {
		return nil, err
	}
	return wl(o)
}

func runUntraced(wl workload, o runOpts) (*result, error) {
	out, err := pass(wl, o, "untraced")
	if err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e}, nil
}

// runTraced runs the workload untraced and then traced, reports the
// traced run's per-layer metrics and how much the tracing raised the
// median event latency (on the open-loop workloads throughput is set by
// the offered rate, so latency is where tracing cost shows), and writes
// the traced run's spans to spanPath.
func runTraced(wl workload, o runOpts, spanPath string) (*result, error) {
	// Each pass gets half the run, so a traced run takes as long as an
	// untraced one.
	o.seconds /= 2
	base, err := pass(wl, o, "untraced")
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	o.spans = newSpanLog()
	tr, err := pass(wl, o, "traced")
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if base.fingerprint != tr.fingerprint {
		return nil, fmt.Errorf("traced run diverged from untraced run:\n  untraced %s\n  traced   %s", base.fingerprint, tr.fingerprint)
	}
	untraced, traced := base.layer["bench.e2e_p50_ms"].Value, tr.layer["bench.e2e_p50_ms"].Value
	tr.layer.set("bench.trace_overhead_pct", 100*ratio(traced-untraced, untraced), "%")
	for _, name := range untracedLayers {
		tr.layer[name] = base.layer[name]
	}
	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		return nil, err
	}
	if err := o.spans.write(spanPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return &result{Correct: true, Attempted: tr.attempted, Failed: tr.failed, Metrics: tr.layer}, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
