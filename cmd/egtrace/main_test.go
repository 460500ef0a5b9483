package main

import (
	"path/filepath"
	"testing"

	"egwalker/internal/core"
)

// TestLoadReadsSavedDocuments: -i takes what Doc.Save writes, in the
// columnar format (with and without the cached text, pruned) and the legacy one,
// and what `-bin gen` writes from it reads back the same. The golden
// files are one document: "golden" typed, the "n" deleted.
func TestLoadReadsSavedDocuments(t *testing.T) {
	in, out, bin := *input, *output, *binary
	t.Cleanup(func() { *input, *output, *binary = in, out, bin })

	check := func(file string) {
		t.Helper()
		*input = file
		name, l, err := load()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		text, err := core.ReplayText(l)
		if err != nil {
			t.Fatalf("%s: replay: %v", file, err)
		}
		if name != file || l.Len() != 7 || text != "golde" {
			t.Fatalf("%s: loaded as %q, %d events, text %q; want 7 events and \"golde\"", file, name, l.Len(), text)
		}
	}
	for _, golden := range []string{"doc-cached.egc", "doc-plain.egc", "doc-pruned.egc", "doc-legacy.egw"} {
		check(filepath.Join("..", "..", "testdata", "colenc", golden))
		*output, *binary = filepath.Join(t.TempDir(), "out.egc"), true
		if err := run("gen"); err != nil {
			t.Fatalf("gen from %s: %v", golden, err)
		}
		check(*output)
	}
}
