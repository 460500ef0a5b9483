// Quickstart: two replicas edit concurrently and merge (the paper's
// Figure 1).
package main

import (
	"errors"
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
	// Alice starts a document.
	alice := egwalker.NewDoc("alice")
	if err := alice.Insert(0, "Helo"); err != nil {
		return err
	}

	// Bob joins and syncs the full history.
	bob := egwalker.NewDoc("bob")
	if _, err := bob.Apply(alice.Events()); err != nil {
		return err
	}
	aliceSeen := alice.Version() // what each side knows the other has
	bobSeen := bob.Version()

	// Now they edit at the same time, offline from each other.
	if err := alice.Insert(3, "l"); err != nil { // "Helo" -> "Hello"
		return err
	}
	if err := bob.Insert(4, "!"); err != nil { // "Helo" -> "Helo!"
		return err
	}
	fmt.Fprintf(w, "before merge: alice=%q bob=%q\n", alice.Text(), bob.Text())

	// Exchange only the events the other side is missing.
	fromAlice, err := alice.EventsSince(bobSeen)
	if err != nil {
		return err
	}
	fromBob, err := bob.EventsSince(aliceSeen)
	if err != nil {
		return err
	}
	patches, err := alice.Apply(fromBob)
	if err != nil {
		return err
	}
	if _, err := bob.Apply(fromAlice); err != nil {
		return err
	}

	// Bob's Insert(4, "!") arrived at alice transformed to index 5,
	// because of her concurrent insertion at index 3.
	for _, p := range patches {
		fmt.Fprintf(w, "alice applied transformed patch: insert=%v pos=%d %q\n", p.Insert, p.Pos, p.Content)
	}
	fmt.Fprintf(w, "after merge:  alice=%q bob=%q\n", alice.Text(), bob.Text())
	if alice.Text() != bob.Text() {
		return errors.New("replicas diverged")
	}
	return nil
}
