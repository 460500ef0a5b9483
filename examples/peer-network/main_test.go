package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPeersConverge: every peer ends with the same text and nothing left
// buffered for missing parents, whatever the gossip dropped, duplicated
// or reordered.
func TestPeersConverge(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), ", pending 0\n"); got != nPeers {
		t.Errorf("%d of %d peers report nothing pending:\n%s", got, nPeers, out.String())
	}
	if !strings.Contains(out.String(), "all 4 peers converged") {
		t.Errorf("output lacks the convergence line:\n%s", out.String())
	}
}
