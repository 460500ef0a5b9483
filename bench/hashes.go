package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// docHash pins one generated document: its event list and its final text.
type docHash struct{ events, text uint64 }

// pinnedSeed is the committed seed: its inputs are checked against
// pinnedHashes (hashes_seed1.go), so a change to the generator, to the Doc
// API's behaviour or to the merge order cannot move the committed numbers'
// inputs unnoticed. Any other seed just prints its hashes.
const pinnedSeed = 1

// corpusHash folds the per-document hashes into the one line a run prints.
func corpusHash(c *corpusFixtures) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, fx := range c.docs {
		binary.LittleEndian.PutUint64(buf[:8], fx.eventsHash)
		binary.LittleEndian.PutUint64(buf[8:], fx.textHash)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// checkHashes compares seed 1's inputs with the committed constants. Scaled
// corpora (the smoke tests) have no constants and are skipped.
func checkHashes(cfg config, c *corpusFixtures, rep *report) error {
	rep.envf("inputs", "%d documents, %d events, corpus hash %016x", len(c.docs), c.events, corpusHash(c))
	want, ok := pinnedHashes[cfg.spec.name]
	frozen, _ := specByName(cfg.spec.name)
	if cfg.seed != pinnedSeed || !ok || cfg.spec != frozen {
		for _, fx := range c.docs {
			rep.envf("input "+fx.docID, "events %016x text %016x", fx.eventsHash, fx.textHash)
		}
		return nil
	}
	if len(want) != len(c.docs) {
		return fmt.Errorf("inputs drifted: %d documents, %d pinned", len(c.docs), len(want))
	}
	for i, fx := range c.docs {
		if (docHash{fx.eventsHash, fx.textHash}) != want[i] {
			return fmt.Errorf("inputs drifted: %s hashes to events %016x text %016x, pinned %016x %016x (regenerate with -pin only if the change is meant)",
				fx.docID, fx.eventsHash, fx.textHash, want[i].events, want[i].text)
		}
	}
	rep.envf("inputs_pinned", "all %d documents match the committed hashes", len(want))
	return nil
}

// printPins writes hashes_seed1.go to standard output.
func printPins() error {
	fmt.Println("package main")
	fmt.Println()
	fmt.Println("// Generated by `go run . -pin`; the inputs of seed 1.")
	fmt.Println("var pinnedHashes = map[string][]docHash{")
	for _, s := range specs {
		fmt.Printf("\t%q: {\n", s.name)
		for idx := 0; idx < s.docs; idx++ {
			g, err := generate(s, pinnedSeed, idx, nil)
			if err != nil {
				return err
			}
			fmt.Printf("\t\t{0x%016x, 0x%016x},\n", hashEvents(g.events), hashString(docText(g.final)))
		}
		fmt.Println("\t},")
	}
	fmt.Println("}")
	return nil
}
