// Offline merge: two authors work offline on long-running branches (the
// workflow that motivates Eg-walker — §1 and §3.7). Each types thousands
// of characters into their own copy; the merge is a single Apply call
// and stays fast because Eg-walker's merge cost is O((k+m) log (k+m)),
// not OT's O(k·m).
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"egwalker"
)

const branchEvents = 20_000

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A shared starting point: a project README.
	origin := egwalker.NewDoc("origin")
	if err := origin.Insert(0, "# Project Notes\n\nIntroduction goes here.\n"); err != nil {
		return err
	}

	// Both authors clone the document, then lose connectivity.
	alice := egwalker.NewDoc("alice")
	bob := egwalker.NewDoc("bob")
	if _, err := alice.Apply(origin.Events()); err != nil {
		return err
	}
	if _, err := bob.Apply(origin.Events()); err != nil {
		return err
	}

	// Alice writes at the top, Bob appends sections at the bottom; both
	// also revise (delete) some of their own text.
	if err := typeAway(alice, 0, branchEvents, 1); err != nil {
		return err
	}
	if err := typeAway(bob, bob.Len(), branchEvents, 2); err != nil {
		return err
	}
	fmt.Fprintf(w, "alice: %d events, %d chars\n", alice.NumEvents(), alice.Len())
	fmt.Fprintf(w, "bob:   %d events, %d chars\n", bob.NumEvents(), bob.Len())

	// Back online: one merge each way.
	start := time.Now()
	if err := alice.Merge(bob); err != nil {
		return err
	}
	if err := bob.Merge(alice); err != nil {
		return err
	}
	fmt.Fprintf(w, "merged %d total events in %v\n", alice.NumEvents(), time.Since(start))

	if alice.Text() != bob.Text() {
		return errors.New("replicas diverged")
	}
	fmt.Fprintf(w, "converged document: %d chars\n", alice.Len())
	return nil
}

// typeAway simulates an author: bursts of typing at a drifting cursor,
// with occasional revisions.
func typeAway(d *egwalker.Doc, cursor, events int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	const letters = "abcdefghijklmnopqrstuvwxyz \n"
	done := 0
	for done < events {
		if cursor > d.Len() {
			cursor = d.Len()
		}
		if rng.Intn(10) == 0 && cursor > 20 {
			// Revise: delete a few characters before the cursor.
			n := 1 + rng.Intn(5)
			if err := d.Delete(cursor-n, n); err != nil {
				return err
			}
			cursor -= n
			done += n
			continue
		}
		n := 1 + rng.Intn(12)
		if done+n > events {
			n = events - done
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		if err := d.Insert(cursor, string(b)); err != nil {
			return err
		}
		cursor += n
		done += n
	}
	return nil
}
