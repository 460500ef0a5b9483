package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBranchesConverge: two 20 000-event offline branches merge both ways
// into one document.
func TestBranchesConverge(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "converged document: ") {
		t.Errorf("output lacks the converged document:\n%s", out.String())
	}
}
