// History: because a Doc stores the full event graph, applications can
// save/load documents with instant loads (cached text, §3.8) and
// reconstruct any past version (§6: history visualisation and
// time travel).
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"egwalker"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	d := egwalker.NewDoc("author")

	// Write a draft in stages, remembering versions along the way.
	if err := d.Insert(0, "Collaborative text editing is hard.\n"); err != nil {
		return err
	}
	draft1 := d.Version()

	if err := d.Insert(d.Len(), "OT is slow to merge; CRDTs eat memory.\n"); err != nil {
		return err
	}
	draft2 := d.Version()

	// Rewrite the first line.
	if err := d.Delete(0, 35); err != nil {
		return err
	}
	if err := d.Insert(0, "Eg-walker makes collaborative editing cheap."); err != nil {
		return err
	}

	fmt.Fprintf(w, "current:\n%s\n", d.Text())

	// Time travel: reconstruct the earlier versions from the graph.
	v1, err := d.TextAt(draft1)
	if err != nil {
		return err
	}
	v2, err := d.TextAt(draft2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "draft 1 was:\n%s\n", v1)
	fmt.Fprintf(w, "draft 2 was:\n%s\n", v2)

	// Persist with the final text cached: loading needs no replay, so
	// it is as fast as reading a plain text file.
	var file bytes.Buffer
	if err := d.Save(&file, egwalker.SaveOptions{CacheFinalDoc: true}); err != nil {
		return err
	}
	fmt.Fprintf(w, "saved %d bytes (history + cached text)\n", file.Len())

	loaded, err := egwalker.Load(&file, "another-device")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded %d events; text matches: %v\n",
		loaded.NumEvents(), loaded.Text() == d.Text())

	// The loaded replica keeps full history: it can still time travel
	// and still merge with others.
	old, err := loaded.TextAt(draft1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded replica reconstructed draft 1: %v\n", old == v1)
	return nil
}
