package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestLoadedReplicaKeepsHistory: the saved document loads to the same
// text, and the loaded replica reconstructs draft 1 from its graph.
func TestLoadedReplicaKeepsHistory(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"draft 1 was:\nCollaborative text editing is hard.\n",
		"text matches: true\n",
		"loaded replica reconstructed draft 1: true\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
