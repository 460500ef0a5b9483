package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestReplicasConverge: Bob's "!" reaches Alice transformed to index 5,
// and both replicas end at Figure 1's "Hello!".
func TestReplicasConverge(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`alice applied transformed patch: insert=true pos=5 "!"`,
		`after merge:  alice="Hello!" bob="Hello!"`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
