package main

// e2e turns one measured loop into the end-to-end metrics.
func (b *bench) e2e(lr *loopResult) map[string]metric {
	out := map[string]metric{
		"heap_mb": {Value: float64(b.heap) / (1 << 20), Unit: "MiB", Samples: 1,
			Note: "peak HeapInuse after a collection, at the start and end of the measured loop"},
	}
	p50 := func(series, name, unit string) {
		xs := lr.t[series]
		out[name] = metric{Value: median(xs), Unit: unit, Samples: len(xs), Percentile: "p50"}
	}
	tl := func(series, name, unit string) {
		xs := lr.t[series]
		v, pct := tail(xs)
		out[name] = metric{Value: v, Unit: unit, Samples: len(xs), Percentile: pct}
	}
	p50("setup_s", "setup_s", "s")
	p50("solve_ms", "solve_ms.p50", "ms")
	tl("solve_ms", "solve_ms.tail", "ms")
	p50("solve_ms.serial", "solve_ms.serial.p50", "ms")
	p50("apply_us", "apply_us.p50", "us")
	p50("apply_us.serial", "apply_us.serial.p50", "us")
	p50("refactor_ms", "refactor_ms.p50", "ms")
	p50("refactor_ms.serial", "refactor_ms.serial.p50", "ms")
	p50("step_ms", "step_ms.p50", "ms")
	tl("step_ms", "step_ms.tail", "ms")
	out["solves_per_s"] = metric{Value: float64(lr.solves) / lr.wall.Seconds(), Unit: "1/s", Samples: lr.solves}
	out["iters_per_solve"] = metric{Value: float64(lr.iters) / float64(max(lr.solves, 1)), Unit: "count", Samples: lr.solves}
	return out
}

// overhead reports, for each e2e metric, the traced minus the
// untraced value.
func overhead(untraced, traced map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, d := range e2eMetrics {
		out["trace_overhead."+d.name] = metric{
			Value: traced[d.name].Value - untraced[d.name].Value, Unit: d.unit,
			Samples: traced[d.name].Samples, Note: "traced minus untraced",
		}
	}
	return out
}
