package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	jbench "javelin/internal/bench"
)

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.3, trace: trace, tiny: true,
		spans: filepath.Join(t.TempDir(), "spans.json")}
}

// checkMetrics requires exactly the defined metrics, each with its
// unit and a finite value.
func checkMetrics(t *testing.T, got map[string]metric, want []metricDef, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case !finite([]float64{m.Value}):
			t.Errorf("metric %s is %v", d.name, m.Value)
		case positive && !(m.Value > 0):
			t.Errorf("metric %s is %v, want > 0", d.name, m.Value)
		}
	}
}

// checkSummary requires the summary line to hold exactly correct,
// attempted, failed and the defined metrics as value and unit.
func checkSummary(t *testing.T, res *result, want []metricDef) {
	t.Helper()
	line, err := summary(res)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil {
		t.Errorf("summary keys: %s", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("summary has %d metrics, want %d", len(metrics), len(want))
	}
	for _, d := range want {
		if m := metrics[d.name]; len(m) != 2 || m["unit"] != d.unit {
			t.Errorf("summary metric %s = %v, want value and unit %q", d.name, m, d.unit)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res, err := run(tinyConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			checkMetrics(t, res.Metrics, append(append([]metricDef(nil), e2eMetrics...), recordOnly...), true)
			checkSummary(t, res, e2eMetrics)
		})
	}
}

func TestTracedSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w, true)
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run failed %d of %d checks: %v", res.Failed, res.Attempted, res.Failures)
			}
			checkMetrics(t, res.Metrics, layerMetrics(), false)
			checkSummary(t, res, layerMetrics())
			data, err := os.ReadFile(cfg.spans)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("spans file holds %d spans (err %v)", len(spans), err)
			}
			for i, s := range spans {
				if s.End < s.Start || s.Parent >= i {
					t.Fatalf("span %d is malformed: %+v", i, s)
				}
			}
		})
	}
}

// TestGateTripsOnCorruptSolution corrupts every returned solution and
// requires the gate to fail the run and the command to exit nonzero.
func TestGateTripsOnCorruptSolution(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w, false)
			cfg.corrupt = func(x []float64) { x[len(x)/2] += 1 }
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted solutions passed the gate: attempted=%d failed=%d", res.Attempted, res.Failed)
			}
			if !strings.Contains(strings.Join(res.Failures, "\n"), "relative residual") {
				t.Errorf("failures do not name the residual check: %v", res.Failures)
			}
		})
	}
}

func TestPreorderMatchesBenchPreorder(t *testing.T) {
	for _, w := range workloads {
		raw, _, err := generate(config{workload: w, seed: 5, tiny: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := preorder(raw)
		if err != nil {
			t.Fatal(err)
		}
		want := jbench.Preorder(raw)
		g := got.Raw()
		if sameInts(g.RowPtr, want.RowPtr) >= 0 || sameInts(g.ColIdx, want.ColIdx) >= 0 || sameBits(g.Val, want.Val) >= 0 {
			t.Errorf("%s: preorder differs from internal/bench.Preorder", w)
		}
	}
}

func sameInts(x, y []int) int {
	if len(x) != len(y) {
		return 0
	}
	for i := range x {
		if x[i] != y[i] {
			return i
		}
	}
	return -1
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, w := range []string{wlPowerflow, wlCircuit} {
		a, _, _ := generate(config{workload: w, seed: 9, tiny: true})
		b, _, _ := generate(config{workload: w, seed: 9, tiny: true})
		c, _, _ := generate(config{workload: w, seed: 10, tiny: true})
		if sameBits(a.Val, b.Val) >= 0 {
			t.Errorf("%s: one seed gave two matrices", w)
		}
		if sameInts(a.ColIdx, c.ColIdx) < 0 && sameBits(a.Val, c.Val) < 0 {
			t.Errorf("%s: two seeds gave one matrix", w)
		}
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json's workload and
// metric lists in step with what the command prints.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var f struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		E2E       []struct{ Name, Unit string } `json:"end_to_end"`
		Layer     []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloads)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), command prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", f.E2E, e2eMetrics)
	same("per_layer", f.Layer, layerMetrics())
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "0.1"},
		{"--workload", wlPoisson, "--trace", "2"},
		{"--workload", wlPoisson, "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := cli(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want nonzero exit and no result", args, code, out.String())
		}
	}
}

func TestTailNamesHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
		v    float64
	}{
		{1100, "p99", 1089},                     // p99.9 would leave 1 beyond
		{200, "p95", 190},                       // p99 would leave 2 beyond
		{20, "p50", 10},                         // 10 beyond the 10th value
		{10, "max (fewer than 11 samples)", 10}, // nothing qualifies
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted input
		}
		if v, p := tail(xs); p != c.want || v != c.v {
			t.Errorf("n=%d: tail = %v (%s), want %v (%s)", c.n, v, p, c.v, c.want)
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	// Span 10 (op 1) covers 0..10 ms; its children 11 and 12 cover
	// 3 ms and 4 ms; span 13 is a second op's root of 2 ms.
	ss := []span{
		{Name: "krylov.solve", Start: 0, End: 10e6, Parent: -1, Op: 1},
		{Name: "core.apply", Start: 1e6, End: 4e6, Parent: 10, Op: 1},
		{Name: "core.apply", Start: 5e6, End: 9e6, Parent: 10, Op: 1},
		{Name: "krylov.solve", Start: 20e6, End: 22e6, Parent: -1, Op: 2},
	}
	got := selfTimes(ss, 10)
	if got["krylov"] != (3+2)/2.0 || got["core"] != 7/2.0 {
		t.Errorf("self times per op = %v, want krylov 2.5 core 3.5", got)
	}
}
