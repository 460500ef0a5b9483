// TCP collaboration: a relay server and two clients on real sockets.
// The relay stores and forwards events (§2.1's "relay server" model);
// each client keeps a full replica and edits locally, so the editing
// experience is latency-free and the relay holds no authority — killing
// it loses nothing that the replicas don't already have.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"egwalker"
	"egwalker/netsync"
)

func main() {
	// --- the relay (could be any host) --------------------------------
	relayDoc := egwalker.NewDoc("relay")
	if err := relayDoc.Insert(0, "shopping list:\n"); err != nil {
		log.Fatal(err)
	}
	relay := netsync.NewRelay(relayDoc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
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
	fmt.Println("relay listening on", addr)

	// --- two clients ---------------------------------------------------
	type peer struct {
		doc *egwalker.Doc
		cli *netsync.Client
	}
	connect := func(agent string) peer {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			log.Fatal(err)
		}
		d := egwalker.NewDoc(agent)
		c, err := netsync.Dial(d, conn, "shopping")
		if err != nil {
			log.Fatal(err)
		}
		if _, err := c.Receive(); err != nil { // initial catch-up
			log.Fatal(err)
		}
		fmt.Printf("%s joined with %q\n", agent, d.Text())
		return peer{d, c}
	}
	alice := connect("alice")
	bob := connect("bob")

	edit := func(p peer, f func(*egwalker.Doc) error) {
		before := p.doc.Version()
		if err := f(p.doc); err != nil {
			log.Fatal(err)
		}
		evs, err := p.doc.EventsSince(before)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.cli.Push(evs); err != nil {
			log.Fatal(err)
		}
	}

	// Concurrent edits: both type before seeing each other's changes.
	edit(alice, func(d *egwalker.Doc) error { return d.Insert(d.Len(), "- milk\n") })
	edit(bob, func(d *egwalker.Doc) error { return d.Insert(d.Len(), "- eggs\n") })

	// Each receives the other's batch via the relay.
	if _, err := alice.cli.Receive(); err != nil {
		log.Fatal(err)
	}
	if _, err := bob.cli.Receive(); err != nil {
		log.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the relay settle

	fmt.Printf("alice sees:\n%s", alice.doc.Text())
	fmt.Printf("bob sees:\n%s", bob.doc.Text())
	if alice.doc.Text() != bob.doc.Text() {
		log.Fatal("replicas diverged!")
	}
	fmt.Println("converged over TCP ✓")

	// Offline repair: a third replica that missed everything catches up
	// with one anti-entropy round against alice, peer-to-peer, no relay.
	carol := egwalker.NewDoc("carol")
	ca, cb := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- netsync.Sync(alice.doc, ca) }()
	if err := netsync.Sync(carol, cb); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("carol synced peer-to-peer: %v\n", carol.Text() == alice.doc.Text())
}
