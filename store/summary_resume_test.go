package store

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"egwalker"
	"egwalker/internal/bufconn"
	"egwalker/netsync"
)

// TestSummaryResumeExactDiff is the summary-handshake acceptance test:
// a client reconnects to a server that is missing one of the client's
// frontier events (the client edited offline), while the server holds
// events the client lacks. The summary hello must yield exactly the
// server-only events — zero re-sent history, no resume fallback — and
// the client's offline push must converge both sides.
func TestSummaryResumeExactDiff(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: -1})
	const docID = "summary-resume"

	// Shared history: 100 events both sides hold.
	seed := egwalker.NewDoc("seed")
	for i := 0; i < 100; i++ {
		if err := seed.Insert(i, "a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Append(docID, seed.Events()); err != nil {
		t.Fatal(err)
	}

	// The client holds the shared history plus offline edits the server
	// never saw: its frontier references events unknown to the server,
	// the case a frontier version could not anchor a diff on.
	doc := egwalker.NewDoc("wanderer")
	if _, err := doc.Apply(seed.Events()); err != nil {
		t.Fatal(err)
	}
	if err := doc.Insert(0, "offline! "); err != nil {
		t.Fatal(err)
	}
	missing, err := doc.EventsSince(seed.Version())
	if err != nil {
		t.Fatal(err)
	}

	// Meanwhile the server advanced too: 20 events the client lacks.
	more := egwalker.NewDoc("seed")
	if _, err := more.Apply(seed.Events()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := more.Insert(more.Len(), "b"); err != nil {
			t.Fatal(err)
		}
	}
	serverOnly, err := more.EventsSince(seed.Version())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Append(docID, serverOnly); err != nil {
		t.Fatal(err)
	}

	cs, ss := net.Pipe()
	defer cs.Close()
	serveOne(t, srv, ss)
	pc := netsync.NewPeerConn(cs)
	err = pc.SendHello(netsync.Hello{
		DocID:   docID,
		Summary: doc.Summary(),
		Compact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The catch-up must be exactly the 20 server-only events: none of
	// the 100 shared ones, even though the server cannot resolve the
	// client's frontier.
	got := recvInto(t, pc, doc, 129)
	if got != 20 {
		t.Fatalf("summary resume received %d events, want exactly the 20 server-only ones (legacy fallback would re-send all 120)", got)
	}

	// Push the offline edits; both sides must converge.
	go func() {
		for {
			if _, _, done, err := pc.Recv(); err != nil || done {
				return
			}
		}
	}()
	if err := pc.SendEvents(missing); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		text, err := srv.Text(docID)
		if err != nil {
			t.Fatal(err)
		}
		if text == doc.Text() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never merged offline edits: %q vs %q", text, doc.Text())
		}
		time.Sleep(2 * time.Millisecond)
	}

	m := srv.MetricsSnapshot()
	if m.SummaryResumes != 1 || m.Resumes != 1 {
		t.Errorf("metrics: summary_resumes=%d resumes=%d, want 1/1", m.SummaryResumes, m.Resumes)
	}
	if m.ResumeEvents != 20 {
		t.Errorf("metrics: resume_events=%d, want 20", m.ResumeEvents)
	}
	if m.ResumeFallbacks != 0 {
		t.Errorf("metrics: resume_fallbacks=%d, want 0 — a summary hello must never fall back for an unknown frontier", m.ResumeFallbacks)
	}
}

// TestSummaryResumeZeroWhenServerBehind: the pure missing-frontier
// case — the server holds a strict subset of the client's history, so
// the exact diff is empty. The legacy path re-sends everything here;
// the summary path sends nothing.
func TestSummaryResumeZeroWhenServerBehind(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: -1})
	const docID = "summary-behind"

	seed := egwalker.NewDoc("seed")
	for i := 0; i < 50; i++ {
		if err := seed.Insert(i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Append(docID, seed.Events()); err != nil {
		t.Fatal(err)
	}

	doc := egwalker.NewDoc("ahead")
	if _, err := doc.Apply(seed.Events()); err != nil {
		t.Fatal(err)
	}
	if err := doc.Insert(doc.Len(), " and more"); err != nil {
		t.Fatal(err)
	}

	cs, ss := net.Pipe()
	defer cs.Close()
	serveOne(t, srv, ss)
	pc := netsync.NewPeerConn(cs)
	err := pc.SendHello(netsync.Hello{
		DocID:   docID,
		Summary: doc.Summary(),
		Compact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The contract sends the first events frame even when empty.
	events, _, done, err := pc.Recv()
	if err != nil || done {
		t.Fatalf("recv catch-up: done=%v err=%v", done, err)
	}
	if len(events) != 0 {
		t.Fatalf("summary resume re-sent %d events the client already holds, want 0", len(events))
	}

	m := srv.MetricsSnapshot()
	if m.SummaryResumes != 1 || m.ResumeEvents != 0 || m.ResumeFallbacks != 0 {
		t.Errorf("metrics: summary_resumes=%d resume_events=%d resume_fallbacks=%d, want 1/0/0",
			m.SummaryResumes, m.ResumeEvents, m.ResumeFallbacks)
	}
}

// TestServeConnRefusesRetiredHellos: the hellos of the deleted
// generations — the v1 hello alone and with a trailing frontier, a v2
// hello with the frontier-resume flag, a v2 hello without the compact
// bit — are refused by ServeConn with an error naming what was sent,
// before a byte is written back or a subscriber registered.
func TestServeConnRefusesRetiredHellos(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: -1})
	seed := egwalker.NewDoc("a")
	if err := seed.Insert(0, "hosted doc"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Append("d", seed.Events()); err != nil {
		t.Fatal(err)
	}
	frame := func(typ byte, payload ...byte) []byte {
		hdr := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		return append(append(hdr, typ), payload...)
	}
	// One head, agent "a" seq 7, as the retired hellos carried it.
	frontier := []byte{1, 1, 'a', 7}
	cases := []struct {
		name, want string
		frame      []byte
	}{
		{"v1", "v1 doc hello", frame(0x04, 1, 'd')},
		{"v1 with version", "v1 doc hello", frame(0x04, append([]byte{1, 'd'}, frontier...)...)},
		{"v2 resume with version", "frontier-resume", frame(0x05, append([]byte{0x03, 1, 'd'}, frontier...)...)},
		{"v2 without compact", "without the compact bit", frame(0x05, 0x00, 1, 'd')},
	}
	ln := bufconn.Listen(1 << 10)
	defer ln.Close()
	for _, tc := range cases {
		client, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		server, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(tc.frame); err != nil {
			t.Fatal(err)
		}
		err = srv.ServeConn(server)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: ServeConn err = %v, want one naming %q", tc.name, err, tc.want)
		}
		server.Close()
		client.SetReadDeadline(time.Now().Add(time.Second))
		if n, err := client.Read(make([]byte, 64)); n != 0 || err != io.EOF {
			t.Fatalf("%s: refused peer read %d bytes, %v; want nothing and EOF", tc.name, n, err)
		}
		client.Close()
		if n := srv.MetricsSnapshot().Subscribers; n != 0 {
			t.Fatalf("%s: %d subscribers registered", tc.name, n)
		}
	}
}
