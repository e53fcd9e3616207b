package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the bounded end-to-end metrics: the summary line of
// every untraced run carries exactly these, on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"solve_ms.p50", "ms"},
	{"solve_ms.serial.p50", "ms"},
	{"apply_us.p50", "us"},
	{"apply_us.serial.p50", "us"},
	{"refactor_ms.p50", "ms"},
	{"refactor_ms.serial.p50", "ms"},
	{"step_ms.p50", "ms"},
	{"step_ms.tail", "ms"},
	{"solves_per_s", "1/s"},
	{"iters_per_solve", "count"},
	{"heap_mb", "MiB"},
}

// recordOnly are end-to-end figures the record line reports without a
// bound. The tail of a 4 ms powerflow-tstep solve measures how often
// the host stalled the run: over ten seeds on a 2-vCPU host its
// interquartile spread was about half its median, wider than any
// bound a regression gate could use.
var recordOnly = []metricDef{
	{"solve_ms.tail", "ms"},
}

// execOps are the operations whose exec.Stats deltas are reported.
var execOps = []string{"apply", "solve", "refactorize"}

// execFields are the per-operation exec.Stats figures.
var execFields = []metricDef{
	{"regions_per_op", "count"},
	{"chunks_per_region", "count"},
	{"gangs_per_op", "count"},
	{"gang_wait_us_per_op", "us"},
	{"parks_per_op", "count"},
	{"wakes_per_op", "count"},
	{"spin_to_parks_per_op", "count"},
	{"steal_success_ratio", "ratio"},
}

// selfLayers are the layers whose self time a traced run reports.
var selfLayers = []string{"perfbench", "javelin", "krylov", "core"}

// layerMetrics are reported by every traced run, on every workload.
func layerMetrics() []metricDef {
	defs := []metricDef{
		{"order.nd_ms", "ms"},
		{"order.zfd_ms", "ms"},
		{"sparse.permute_ms", "ms"},
		{"levelset.split_ms", "ms"},
		{"levelset.levels", "count"},
		{"levelset.nupper", "count"},
		{"levelset.nlower", "count"},
		{"core.factorize_ms", "ms"},
		{"core.refactorize_ms", "ms"},
		{"core.symbolic_ms", "ms"},
		{"core.lower_sweep_us", "us"},
		{"core.upper_sweep_us", "us"},
		{"core.apply_us", "us"},
		{"core.perm_copy_us", "us"},
		{"trisolve.lower_us", "us"},
		{"trisolve.upper_us", "us"},
		{"p2p.sync_overhead_us", "us"},
		{"spmv.matvec_us", "us"},
		{"spmv.matvec_us.serial", "us"},
		{"spmv.gbps_computed", "GB/s"},
		{"krylov.pc_ms", "ms"},
		{"krylov.rest_ms", "ms"},
		{"sparse.update_values_us", "us"},
		{"epoch.pairs_seen", "count"},
		{"epoch.stale_solve_ratio", "ratio"},
	}
	for _, op := range execOps {
		for _, f := range execFields {
			defs = append(defs, metricDef{"exec." + op + "." + f.name, f.unit})
		}
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self_ms." + l, "ms"})
	}
	for _, m := range e2eMetrics {
		defs = append(defs, metricDef{"trace_overhead." + m.name, m.unit})
	}
	return defs
}
