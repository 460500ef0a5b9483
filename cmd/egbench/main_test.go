package main

import (
	"bytes"
	"errors"
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
