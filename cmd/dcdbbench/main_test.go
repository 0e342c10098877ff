package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFig9 runs the heat-removal use case, which evaluates a libdcdb
// virtual sensor (heat removed over power) hour by hour: the table has
// one row per hour and comes out the same on every run.
func TestFig9(t *testing.T) {
	var first, second bytes.Buffer
	if err := run([]string{"-exp", "fig9"}, &first); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig9"}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("fig9 differs between runs:\n%s\n---\n%s", first.String(), second.String())
	}
	lines := strings.Split(strings.TrimSpace(first.String()), "\n")
	if !strings.HasPrefix(lines[0], "== Figure 9 / Use case 1") || !strings.HasPrefix(lines[1], "Hour  Power[kW]") {
		t.Fatalf("fig9 header:\n%s", first.String())
	}
	rows := 0
	for _, l := range lines[3:] {
		if strings.HasPrefix(l, "efficiency") || l == "" {
			break
		}
		rows++
	}
	if rows != 24 {
		t.Fatalf("fig9 has %d hour rows, want 24:\n%s", rows, first.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "fig99"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99"`) {
		t.Fatalf("run -exp fig99 = %v, want the unknown-experiment error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("run -exp fig99 printed %q", out.String())
	}
}
