// Peer network: several replicas collaborate over an unreliable
// peer-to-peer network with no central server (§2.1's system model).
// Each peer runs in its own goroutine; events are gossiped over
// channels with random delay, duplication, and reordering. Apply's
// causal buffering absorbs all of it, and every peer converges.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"egwalker"
)

const (
	nPeers        = 4
	editsPerPeer  = 300
	gossipBufSize = 10_000
)

type network struct {
	inboxes [nPeers]chan []egwalker.Event
}

// send gossips events to every other peer with random delay, sometimes
// duplicating or delaying batches (the reliable-broadcast abstraction
// tolerates both).
func (n *network) send(from int, evs []egwalker.Event, rng *rand.Rand) {
	for to := 0; to < nPeers; to++ {
		if to == from {
			continue
		}
		copies := 1
		if rng.Intn(10) == 0 {
			copies = 2 // duplicate delivery
		}
		for c := 0; c < copies; c++ {
			batch := append([]egwalker.Event(nil), evs...)
			inbox := n.inboxes[to]
			delay := time.Duration(rng.Intn(3)) * time.Millisecond
			go func() {
				time.Sleep(delay)
				inbox <- batch
			}()
		}
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	var net network
	for i := range net.inboxes {
		net.inboxes[i] = make(chan []egwalker.Event, gossipBufSize)
	}

	var wg sync.WaitGroup
	errs := make([]error, nPeers) // what each peer's edit returned
	docs := make([]*egwalker.Doc, nPeers)
	for i := range docs {
		docs[i] = egwalker.NewDoc(fmt.Sprintf("peer%d", i))
	}

	for i := 0; i < nPeers; i++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			errs[me] = edit(docs[me], me, &net)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// Let in-flight gossip settle, then drain all inboxes.
	time.Sleep(50 * time.Millisecond)
	for i, d := range docs {
		for {
			select {
			case evs := <-net.inboxes[i]:
				if _, err := d.Apply(evs); err != nil {
					return err
				}
				continue
			default:
			}
			break
		}
	}
	// Final anti-entropy pass: peers exchange anything still missing
	// (lost messages are repaired by state comparison, like a gossip
	// protocol's reconciliation round).
	for round := 0; round < 3; round++ {
		for i := range docs {
			for j := range docs {
				if i != j {
					if err := docs[i].Merge(docs[j]); err != nil {
						return err
					}
				}
			}
		}
	}

	for i, d := range docs {
		fmt.Fprintf(w, "peer%d: %d events, %d chars, pending %d\n", i, d.NumEvents(), d.Len(), d.PendingEvents())
	}
	for _, d := range docs[1:] {
		if d.Text() != docs[0].Text() {
			return errors.New("peers diverged")
		}
	}
	fmt.Fprintf(w, "all %d peers converged on a %d-char document\n", nPeers, docs[0].Len())
	return nil
}

// edit is one peer's session: it drains its inbox, makes a local edit
// and gossips it, editsPerPeer times.
func edit(d *egwalker.Doc, me int, net *network) error {
	rng := rand.New(rand.NewSource(int64(me) + 7))
	for edits := 0; edits < editsPerPeer; {
		// Drain the inbox first.
		for {
			select {
			case evs := <-net.inboxes[me]:
				if _, err := d.Apply(evs); err != nil {
					return err
				}
				continue
			default:
			}
			break
		}
		// Make a local edit and gossip it.
		before := d.Version()
		if d.Len() > 0 && rng.Intn(4) == 0 {
			pos := rng.Intn(d.Len())
			if err := d.Delete(pos, 1); err != nil {
				return err
			}
		} else {
			pos := rng.Intn(d.Len() + 1)
			if err := d.Insert(pos, string(rune('a'+me))+string(rune('0'+rng.Intn(10)))); err != nil {
				return err
			}
		}
		edits++
		evs, err := d.EventsSince(before)
		if err != nil {
			return err
		}
		net.send(me, evs, rng)
	}
	return nil
}
