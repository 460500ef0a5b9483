package store

import (
	"net"
	"testing"
	"time"

	"egwalker"
	"egwalker/netsync"
)

// serveOne runs ServeConn for one server-side pipe end in the
// background.
func serveOne(t *testing.T, srv *Server, ss net.Conn) {
	t.Helper()
	go func() {
		defer ss.Close()
		srv.ServeConn(ss)
	}()
}

// recvInto reads frames and applies them to doc until it holds want
// events, returning how many events arrived on the wire (including
// duplicates the doc deduplicated).
func recvInto(t *testing.T, pc *netsync.PeerConn, doc *egwalker.Doc, want int) int {
	t.Helper()
	received := 0
	for doc.NumEvents() < want {
		events, _, done, err := pc.Recv()
		if err != nil || done {
			t.Fatalf("recv: done=%v err=%v with %d/%d events", done, err, doc.NumEvents(), want)
		}
		received += len(events)
		if _, err := doc.Apply(events); err != nil {
			t.Fatal(err)
		}
	}
	return received
}

// TestResumeReceivesOnlyNewEvents is the incremental-resume acceptance
// test: a client that reconnects presenting the summary of version V
// receives exactly the events after V — not the full history it
// already holds.
func TestResumeReceivesOnlyNewEvents(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: -1})
	const docID = "resume-doc"

	// Seed 100 events.
	seed := egwalker.NewDoc("seed")
	for i := 0; i < 100; i++ {
		if err := seed.Insert(i, "a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Append(docID, seed.Events()); err != nil {
		t.Fatal(err)
	}

	// First join: fresh client, full snapshot (100 events).
	doc := egwalker.NewDoc("client")
	cs, ss := net.Pipe()
	serveOne(t, srv, ss)
	pc := netsync.NewPeerConn(cs)
	if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	if got := recvInto(t, pc, doc, 100); got != 100 {
		t.Fatalf("fresh join received %d events, want 100", got)
	}
	cs.Close()

	// 20 more events land while the client is away.
	more := egwalker.NewDoc("seed") // same agent, continue the history
	if _, err := more.Apply(seed.Events()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := more.Insert(more.Len(), "b"); err != nil {
			t.Fatal(err)
		}
	}
	newEvents, err := more.EventsSince(seed.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(newEvents) != 20 {
		t.Fatalf("setup: %d new events, want 20", len(newEvents))
	}
	if err := srv.Append(docID, newEvents); err != nil {
		t.Fatal(err)
	}

	// Reconnect presenting the summary of V (the 100-event state): the
	// catch-up must carry exactly the 20 events after V.
	cs2, ss2 := net.Pipe()
	defer cs2.Close()
	serveOne(t, srv, ss2)
	pc2 := netsync.NewPeerConn(cs2)
	if err := pc2.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: doc.Summary()}); err != nil {
		t.Fatal(err)
	}
	got := recvInto(t, pc2, doc, 120)
	if got != 20 {
		t.Fatalf("resume received %d events, want exactly the 20 new ones (full snapshot would be 120)", got)
	}
	wantText, err := srv.Text(docID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Text() != wantText {
		t.Fatalf("resumed client diverged: %q vs %q", doc.Text(), wantText)
	}

	m := srv.MetricsSnapshot()
	if m.Resumes != 1 || m.ResumeEvents != 20 {
		t.Errorf("metrics: resumes=%d resume_events=%d, want 1/20", m.Resumes, m.ResumeEvents)
	}
	if m.BlockServes < 1 || m.BlockServeEvents < 100 {
		t.Errorf("metrics: block_serves=%d block_serve_events=%d", m.BlockServes, m.BlockServeEvents)
	}
}

// TestResumeUnknownVersionFallsBack: a resume hello whose summary names
// events the server never saw still converges — the server sends what
// the client lacks (here nothing) without falling back to a full
// catch-up, and takes the client's upload.
func TestResumeUnknownVersionFallsBack(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: -1})
	const docID = "resume-foreign"

	seed := egwalker.NewDoc("seed")
	if err := seed.Insert(0, "server side text"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Append(docID, seed.Events()); err != nil {
		t.Fatal(err)
	}

	// The client holds the server history plus local edits the server
	// has never seen: its version references unknown events.
	doc := egwalker.NewDoc("wanderer")
	if _, err := doc.Apply(seed.Events()); err != nil {
		t.Fatal(err)
	}
	if err := doc.Insert(0, "offline! "); err != nil {
		t.Fatal(err)
	}

	// Compute the upload before dialing: the drain goroutine below owns
	// the doc once the connection is up.
	missing, err := doc.EventsSince(seed.Version())
	if err != nil {
		t.Fatal(err)
	}

	cs, ss := net.Pipe()
	defer cs.Close()
	serveOne(t, srv, ss)
	c, err := netsync.Dial(doc, cs, docID)
	if err != nil {
		t.Fatal(err)
	}
	// Drain inbound frames (net.Pipe is unbuffered — the server's
	// catch-up write would otherwise deadlock against our Push).
	go func() {
		for {
			if _, err := c.Receive(); err != nil {
				return
			}
		}
	}()
	// Upload the offline edits; the server must accept and apply them.
	if err := c.Push(missing); err != nil {
		t.Fatal(err)
	}
	want := "offline! server side text"
	deadline := time.Now().Add(5 * time.Second)
	for {
		text, err := srv.Text(docID)
		if err != nil {
			t.Fatal(err)
		}
		if text == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never merged offline edits: %q", text)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if m := srv.MetricsSnapshot(); m.ResumeFallbacks != 0 || m.SummaryResumes != 1 {
		t.Fatalf("resume_fallbacks=%d summary_resumes=%d, want 0/1", m.ResumeFallbacks, m.SummaryResumes)
	}
}
