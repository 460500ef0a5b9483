package store

import (
	"fmt"
	"net"
	"testing"
	"time"

	"egwalker"
	"egwalker/netsync"
)

// TestSlowSubscriberSeverAndResume is the regression test for the
// slow-peer sever policy: when one subscriber stops draining its
// outbox, that subscriber alone is severed — other peers keep
// receiving every event — and the severed client reconverges by
// reconnecting with an incremental resume instead of a full snapshot.
func TestSlowSubscriberSeverAndResume(t *testing.T) {
	// The per-peer outbox budget is sized around what a coalesced
	// backlog of single-char inserts costs in the compact encoding every
	// subscriber gets: ~1 byte per event plus ~30 bytes of frame. The
	// 100 events B drains while alive coalesce to ~130 bytes even if
	// they all queue at once, while the 300-event backlog after B stalls
	// passes the budget after ~220 events.
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Millisecond, OutboxBytesPerPeer: 256})
	const docID = "sever-doc"
	const totalEvents = 400
	const stallAt = 100

	// B: the peer that will go slow. Connects first; reads a while,
	// then stops draining.
	bcs, bss := net.Pipe()
	defer bcs.Close()
	serveOne(t, srv, bss)
	bdoc := egwalker.NewDoc("b")
	bpc := netsync.NewPeerConn(bcs)
	if err := bpc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}

	// A: a healthy peer that drains promptly.
	acs, ass := net.Pipe()
	defer acs.Close()
	serveOne(t, srv, ass)
	adoc := egwalker.NewDoc("a")
	apc := netsync.NewPeerConn(acs)
	if err := apc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	aDone := make(chan error, 1)
	go func() {
		for adoc.NumEvents() < totalEvents {
			evs, _, done, err := apc.Recv()
			if err != nil || done {
				aDone <- fmt.Errorf("a: done=%v err=%v at %d events", done, err, adoc.NumEvents())
				return
			}
			if _, err := adoc.Apply(evs); err != nil {
				aDone <- err
				return
			}
		}
		aDone <- nil
	}()

	// C: the writer, uploading one single-event batch at a time so the
	// slow peer's outbox fills batch by batch. C must read its (empty)
	// initial snapshot frame first — net.Pipe is unbuffered.
	ccs, css := net.Pipe()
	defer ccs.Close()
	serveOne(t, srv, css)
	cdoc := egwalker.NewDoc("c")
	cpc := netsync.NewPeerConn(ccs)
	if err := cpc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cpc.Recv(); err != nil {
		t.Fatal(err)
	}
	// C writes in two phases: stallAt events while B drains, then —
	// only once B has gone silent — the rest. The pause makes the
	// sever deterministic: without it C could finish before B stalls,
	// and a backlog that stops growing never overflows the budget
	// (severing happens on push).
	bStalled := make(chan struct{})
	cErr := make(chan error, 1)
	go func() {
		for i := 0; i < totalEvents; i++ {
			if i == stallAt {
				<-bStalled
			}
			pre := cdoc.Version()
			if err := cdoc.Insert(cdoc.Len(), "x"); err != nil {
				cErr <- err
				return
			}
			evs, err := cdoc.EventsSince(pre)
			if err == nil {
				err = cpc.SendEvents(evs)
			}
			if err != nil {
				cErr <- err
				return
			}
		}
		cErr <- nil
	}()

	// B drains the first stallAt events, then goes silent.
	for bdoc.NumEvents() < stallAt {
		evs, _, done, err := bpc.Recv()
		if err != nil || done {
			t.Fatalf("b: done=%v err=%v at %d events", done, err, bdoc.NumEvents())
		}
		if _, err := bdoc.Apply(evs); err != nil {
			t.Fatal(err)
		}
	}
	close(bStalled)

	if err := <-cErr; err != nil {
		t.Fatalf("writer: %v", err)
	}
	// The healthy peer must receive everything despite B stalling.
	if err := <-aDone; err != nil {
		t.Fatalf("healthy peer starved: %v", err)
	}
	if adoc.Text() != cdoc.Text() {
		t.Fatal("healthy peer diverged")
	}

	// B alone must have been severed (its outbox filled), and the
	// sever must close B's connection so its next read fails rather
	// than blocking forever.
	deadline := time.Now().Add(5 * time.Second)
	for srv.MetricsSnapshot().PeersSevered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow peer never severed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := srv.MetricsSnapshot().PeersSevered; n != 1 {
		t.Fatalf("%d peers severed, want only the slow one", n)
	}
	bcs.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, _, err := bpc.Recv(); err == nil {
		// Drain anything buffered before the sever; the connection
		// must still die promptly.
		for {
			if _, _, _, err := bpc.Recv(); err != nil {
				break
			}
		}
	}

	// B reconverges via incremental resume: the catch-up carries
	// exactly the events B is missing, not the full history.
	before := bdoc.NumEvents()
	if before >= totalEvents {
		t.Fatalf("setup: slow peer already has all %d events", before)
	}
	rcs, rss := net.Pipe()
	defer rcs.Close()
	serveOne(t, srv, rss)
	rpc := netsync.NewPeerConn(rcs)
	if err := rpc.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: bdoc.Summary()}); err != nil {
		t.Fatal(err)
	}
	got := recvInto(t, rpc, bdoc, totalEvents)
	if want := totalEvents - before; got != want {
		t.Fatalf("resume shipped %d events, want %d (full snapshot would be %d)", got, want, totalEvents)
	}
	if bdoc.Text() != cdoc.Text() {
		t.Fatal("severed peer failed to reconverge")
	}
}
