// TCP collaboration: a relay server and two clients on real sockets.
// The relay stores and forwards events (§2.1's "relay server" model);
// each client keeps a full replica and edits locally, so the editing
// experience is latency-free and the relay holds no authority — killing
// it loses nothing that the replicas don't already have.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"egwalker"
	"egwalker/netsync"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// --- the relay (could be any host) --------------------------------
	relayDoc := egwalker.NewDoc("relay")
	if err := relayDoc.Insert(0, "shopping list:\n"); err != nil {
		return err
	}
	relay := netsync.NewRelay(relayDoc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if err := relay.Serve(conn); err != nil {
					log.Printf("relay: peer error: %v", err)
				}
			}()
		}
	}()
	addr := ln.Addr().String()
	fmt.Fprintln(w, "relay listening on", addr)

	// --- two clients ---------------------------------------------------
	type peer struct {
		doc  *egwalker.Doc
		cli  *netsync.Client
		conn net.Conn
	}
	connect := func(agent string) (peer, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return peer{}, err
		}
		d := egwalker.NewDoc(agent)
		c, err := netsync.Dial(d, conn, "shopping")
		if err == nil {
			_, err = c.Receive() // initial catch-up
		}
		if err != nil {
			conn.Close()
			return peer{}, err
		}
		fmt.Fprintf(w, "%s joined with %q\n", agent, d.Text())
		return peer{d, c, conn}, nil
	}
	alice, err := connect("alice")
	if err != nil {
		return err
	}
	defer alice.conn.Close()
	bob, err := connect("bob")
	if err != nil {
		return err
	}
	defer bob.conn.Close()

	edit := func(p peer, f func(*egwalker.Doc) error) error {
		before := p.doc.Version()
		if err := f(p.doc); err != nil {
			return err
		}
		evs, err := p.doc.EventsSince(before)
		if err != nil {
			return err
		}
		return p.cli.Push(evs)
	}

	// Concurrent edits: both type before seeing each other's changes.
	if err := edit(alice, func(d *egwalker.Doc) error { return d.Insert(d.Len(), "- milk\n") }); err != nil {
		return err
	}
	if err := edit(bob, func(d *egwalker.Doc) error { return d.Insert(d.Len(), "- eggs\n") }); err != nil {
		return err
	}

	// Each receives the other's batch via the relay.
	if _, err := alice.cli.Receive(); err != nil {
		return err
	}
	if _, err := bob.cli.Receive(); err != nil {
		return err
	}
	time.Sleep(10 * time.Millisecond) // let the relay settle

	fmt.Fprintf(w, "alice sees:\n%s", alice.doc.Text())
	fmt.Fprintf(w, "bob sees:\n%s", bob.doc.Text())
	if alice.doc.Text() != bob.doc.Text() {
		return errors.New("replicas diverged")
	}
	fmt.Fprintln(w, "converged over TCP ✓")

	// Offline repair: a third replica that missed everything catches up
	// with one anti-entropy round against alice, peer-to-peer, no relay.
	carol := egwalker.NewDoc("carol")
	ca, cb := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- netsync.Sync(alice.doc, ca) }()
	if err := netsync.Sync(carol, cb); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	fmt.Fprintf(w, "carol synced peer-to-peer: %v\n", carol.Text() == alice.doc.Text())
	return nil
}
