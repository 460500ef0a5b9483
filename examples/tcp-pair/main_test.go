package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestConvergesOverTCP: the two relay clients converge, and a third
// replica catches up with one peer-to-peer Sync.
func TestConvergesOverTCP(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"converged over TCP ✓\n",
		"carol synced peer-to-peer: true\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
