package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunTablesSmoke(t *testing.T) {
	// Table IV covers only the lower(A)-pattern subset, so pick a
	// matrix that appears in all three tables.
	for _, table := range []string{"1", "3", "4"} {
		var out, errb bytes.Buffer
		rc := run([]string{"-table", table, "-scale", "0.02", "-matrices", "trans4"}, &out, &errb)
		if rc != 0 {
			t.Fatalf("table %s: rc=%d stderr=%s", table, rc, errb.String())
		}
		if !strings.Contains(out.String(), "trans4") {
			t.Fatalf("table %s output missing matrix name:\n%s", table, out.String())
		}
	}
}

func TestRunStatsFlag(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-table", "1", "-scale", "0.02", "-matrices", "wang3", "-stats"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	for _, want := range []string{"runtime stats", "regions", "gang_wait_ns", "spin_to_parks"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-stats output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCapabilityReport(t *testing.T) {
	// The report must always name the active variant, the detected
	// CPU features, and the asm-backed slots — on any machine: a
	// non-AVX2 (or purego) run prints "none"/"pure Go" rather than
	// omitting the lines.
	var out, errb bytes.Buffer
	rc := run([]string{"-table", "1", "-scale", "0.02", "-matrices", "wang3"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	for _, want := range []string{"numeric kernels:", "cpu features:", "asm-backed slots:", "solve sweep:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("capability report missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunEpochReport(t *testing.T) {
	// The epoch-discipline line runs a real update → refactorize round
	// trip, so both epoch counters must have advanced to 2 in lockstep
	// with zero failures, on every build.
	var out, errb bytes.Buffer
	rc := run([]string{"-table", "1", "-scale", "0.02", "-matrices", "wang3"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	want := "epoch discipline: matrix epoch 2 (1 updates), factor epoch 2 (1 refactorizes, 0 failed)"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("epoch report missing %q:\n%s", want, out.String())
	}
}

func TestRunRejectsUnknownTable(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-table", "2"}, &out, &errb); rc != 2 {
		t.Fatalf("rc=%d, want 2", rc)
	}
	if !strings.Contains(errb.String(), "no such table") {
		t.Fatalf("missing error message: %s", errb.String())
	}
}
