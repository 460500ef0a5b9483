package main

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestRunSim runs egbench sim on its smallest scenario — two replicas,
// forty edits, every fault — with its flags after the subcommand, and
// reads what it prints: the events converged and the oracle passed.
func TestRunSim(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"sim", "-sim-replicas", "2", "-sim-events", "40", "-sim-faults", "all"}, &out, &errOut); err != nil {
		t.Fatalf("egbench sim: %v\n%s", err, errOut.String())
	}
	for _, want := range []string{
		"== sim: 2 replicas, 40 events, seed 1, faults all ==",
		"events converged",
		"convergence oracle     passed (2 replicas",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("the output has no %q:\n%s", want, out.String())
		}
	}
}

// TestRunRefusesUnknownCommands: a command egbench does not have, or a
// flag it does not know, is a usage error, which main exits 2 for.
func TestRunRefusesUnknownCommands(t *testing.T) {
	for _, args := range [][]string{{"fig99"}, {"-no-such-flag", "sim"}, {"sim", "-sim-nothing", "1"}} {
		var out, errOut bytes.Buffer
		err := run(append([]string{"-scale", "0.0001"}, args...), &out, &errOut)
		if !errors.As(err, new(usageError)) {
			t.Errorf("egbench %s: %v, want a usage error", strings.Join(args, " "), err)
		}
	}
}

// TestRunFileFigures runs the paper's load and file-size figures — 8, 11
// and 12 — at a tiny scale: each prints a row per trace, and pruning
// never makes a file larger.
func TestRunFileFigures(t *testing.T) {
	traces := []string{"S1", "S2", "S3", "C1", "C2", "A1", "A2"}
	for _, fig := range []string{"fig8", "fig11", "fig12"} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-scale", "0.001", "-iters", "1", fig}, &out, &errOut); err != nil {
			t.Fatalf("egbench %s: %v\n%s", fig, err, errOut.String())
		}
		rows := map[string][]string{}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				rows[f[0]] = f
			}
		}
		for _, name := range traces {
			row, ok := rows[name]
			if !ok {
				t.Fatalf("egbench %s prints no row for %s:\n%s", fig, name, out.String())
			}
			if fig != "fig12" {
				continue
			}
			// full, pruned (two fields each), their B/event, the ratio.
			if len(row) < 8 {
				t.Fatalf("egbench fig12 row %q", row)
			}
			if ratio, err := strconv.ParseFloat(row[7], 64); err != nil || ratio > 1 {
				t.Errorf("egbench fig12 %s: pruned/full ratio %q (%v)", name, row[7], err)
			}
		}
	}
}
