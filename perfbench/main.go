// Command perfbench is the repository benchmark. It generates one of
// three seeded ILU workloads, drives it through the public javelin
// API, checks every answer, and prints the end-to-end metrics — or,
// with --trace 1, the per-layer metrics of a traced replay — as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// A record line before it carries sample counts, tail percentiles,
// notes and the host stamp. The exit code is nonzero when any check
// failed. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload poisson3d-cg --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// result is one run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run, one of %v, or all to run each in turn", workloads))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated matrix, right-hand sides and value drift")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured loop")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced layer replay and reports per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", ".bench_build/spans.json", "file a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.workload != "all" {
		return runOne(cfg, stdout, stderr)
	}
	code := 0
	for _, w := range workloads {
		cfg.workload = w
		code = max(code, runOne(cfg, stdout, stderr))
	}
	return code
}

// runOne runs one workload and prints its record and summary lines.
func runOne(cfg config, stdout, stderr io.Writer) int {
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	record, err := json.Marshal(map[string]any{"record": res})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	last, err := summary(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(record))
	fmt.Fprintln(stdout, string(last))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d checks failed: %v\n", res.Failed, res.Attempted, res.Failures)
		return 1
	}
	return 0
}

// summary is the last output line: exactly correct, attempted, failed
// and the value and unit of each bounded metric of the run's kind.
func summary(res *result) ([]byte, error) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := e2eMetrics
	if res.Trace {
		defs = layerMetrics()
	}
	ms := map[string]vu{}
	for _, d := range defs {
		m := res.Metrics[d.name]
		ms[d.name] = vu{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
}

// run executes one benchmark run: set-up, determinism gates, the
// measured loop (untraced, then traced when cfg.trace), the layer
// replay when traced, and the closing gates.
func run(cfg config) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	b := &bench{cfg: cfg, nproc: runtime.NumCPU()}
	defer b.close()
	if err := b.setup(); err != nil {
		return nil, err
	}
	b.gates(true)
	// A traced run splits its measured time between an untraced and a
	// traced loop, so it takes about as long as an untraced run.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	untraced := b.e2e(b.measure(budget, nil))

	metrics := untraced
	if cfg.trace {
		tr := newTracer()
		loop := b.measure(budget, tr)
		loopSpans := tr.snapshot(0)
		tracedE2E := b.e2e(loop)
		layers, err := b.layers(tr, loop, loopSpans)
		if err != nil {
			return nil, err
		}
		for k, v := range overhead(untraced, tracedE2E) {
			layers[k] = v
		}
		if err := tr.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		metrics = layers
	}
	b.gates(false)

	attempted, failed, reasons := b.g.counts()
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host:      stampHost(cfg.seed, b.workingSet()),
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted, Failed: failed, Failures: reasons,
		FailRatio: float64(failed) / float64(max(attempted, 1)),
		Metrics:   metrics,
	}
	return res, nil
}

// workingSet is the computed working set: the matrix and its ILU
// factor (one pattern: values, column indices, row pointers, diagonal
// positions) plus six n-vectors.
func (b *bench) workingSet() int64 {
	n, nnz := int64(b.raw.N), int64(b.raw.Nnz())
	csr := nnz*16 + (n+1)*8
	return 2*csr + n*8 + 6*n*8
}
