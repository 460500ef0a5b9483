package store

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"egwalker"
	"egwalker/internal/colenc"
	"egwalker/netsync"
)

func newTestServer(t *testing.T, opts ServerOptions) *Server {
	t.Helper()
	srv, err := NewServer(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestServerLRUEvictionReopen: host well over the LRU cap, write
// distinct content to every document, and verify (a) the cap holds,
// (b) every document — including every evicted one — reopens from disk
// with its exact content, and (c) cold reopen in a fresh server sees
// all of them.
func TestServerLRUEvictionReopen(t *testing.T) {
	const docs = 120
	const cap = 8
	root := t.TempDir()
	srv, err := NewServer(root, ServerOptions{MaxOpenDocs: cap, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, docs)
	for i := 0; i < docs; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		text := fmt.Sprintf("document %d body: %s", i, id)
		err := srv.With(id, func(ds *DocStore) error { return ds.Insert(0, text) })
		if err != nil {
			t.Fatal(err)
		}
		want[id] = text
		if n := srv.MetricsSnapshot().MaterializedDocs; n > cap {
			t.Fatalf("after %d docs: %d materialized, cap %d", i+1, n, cap)
		}
	}
	// Touch every doc again: each read of an evicted doc is a
	// recovery-from-disk.
	for id, text := range want {
		got, err := srv.Text(id)
		if err != nil {
			t.Fatalf("Text(%q): %v", id, err)
		}
		if got != text {
			t.Fatalf("doc %q after eviction: %q, want %q", id, got, text)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart: a brand-new server over the same root.
	srv2, err := NewServer(root, ServerOptions{MaxOpenDocs: cap})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ids, err := srv2.DocIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != docs {
		t.Fatalf("cold server lists %d docs, want %d", len(ids), docs)
	}
	for _, id := range ids {
		got, err := srv2.Text(id)
		if err != nil || got != want[id] {
			t.Fatalf("cold reopen %q: %q (%v), want %q", id, got, err, want[id])
		}
	}
}

// TestServeConnMultiplex: one listener, several documents, several
// clients per document — each client converges on its document and
// never sees another document's events; everything survives a server
// restart.
func TestServeConnMultiplex(t *testing.T) {
	root := t.TempDir()
	srv, err := NewServer(root, ServerOptions{FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
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
				srv.ServeConn(conn)
			}()
		}
	}()

	type client struct {
		doc  *egwalker.Doc
		c    *netsync.Client
		conn net.Conn
	}
	dial := func(docID, agent string) *client {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		doc := egwalker.NewDoc(agent)
		c, err := netsync.Dial(doc, conn, docID)
		if err != nil {
			t.Fatal(err)
		}
		return &client{doc: doc, c: c, conn: conn}
	}

	docIDs := []string{"notes/alpha", "notes/beta", "notes/gamma"}
	texts := map[string]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, docID := range docIDs {
		wg.Add(1)
		go func(docID string) {
			defer wg.Done()
			a := dial(docID, docID+"-a")
			b := dial(docID, docID+"-b")
			defer a.conn.Close()
			defer b.conn.Close()
			// a types; b receives.
			payload := "contents of " + docID
			for i, r := range payload {
				if err := a.doc.Insert(i, string(r)); err != nil {
					t.Error(err)
					return
				}
			}
			evs := a.doc.Events()
			if err := a.c.Push(evs); err != nil {
				t.Error(err)
				return
			}
			for b.doc.Len() < len(payload) {
				if _, err := b.c.Receive(); err != nil {
					t.Errorf("%s: receive: %v", docID, err)
					return
				}
			}
			if b.doc.Text() != payload {
				t.Errorf("%s: b got %q", docID, b.doc.Text())
				return
			}
			mu.Lock()
			texts[docID] = payload
			mu.Unlock()
		}(docID)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Give the flusher a beat, then restart the server and check every
	// document recovered.
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(root, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for _, docID := range docIDs {
		got, err := srv2.Text(docID)
		if err != nil {
			t.Fatal(err)
		}
		if got != texts[docID] {
			t.Fatalf("restarted server: %q = %q, want %q", docID, got, texts[docID])
		}
	}
}

// TestServeConnLateJoiner: a client connecting after edits happened
// receives the full history as its snapshot.
func TestServeConnLateJoiner(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: -1})
	seed := egwalker.NewDoc("early")
	if err := seed.Insert(0, "already here"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Append("late-doc", seed.Events()); err != nil {
		t.Fatal(err)
	}

	cs, ss := net.Pipe()
	defer cs.Close()
	go func() {
		defer ss.Close()
		srv.ServeConn(ss)
	}()
	doc := egwalker.NewDoc("late")
	c, err := netsync.Dial(doc, cs, "late-doc")
	if err != nil {
		t.Fatal(err)
	}
	for doc.Len() < seed.Len() {
		if _, err := c.Receive(); err != nil {
			t.Fatal(err)
		}
	}
	if doc.Text() != "already here" {
		t.Fatalf("late joiner got %q", doc.Text())
	}
	c.Close()
}

// TestServerBackgroundCompaction: enough events through the server
// trigger the flusher -> compactor pipeline without any explicit call.
func TestServerBackgroundCompaction(t *testing.T) {
	srv := newTestServer(t, ServerOptions{
		FlushInterval: time.Millisecond,
		SnapshotEvery: 100,
	})
	for i := 0; i < 40; i++ {
		err := srv.With("busy", func(ds *DocStore) error {
			return ds.Insert(0, "0123456789")
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var snapBytes int64
		srv.With("busy", func(ds *DocStore) error {
			snapBytes, _, _ = ds.DiskUsage()
			return nil
		})
		if snapBytes > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background compaction never produced a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAppendFansOutTheSmallerEncoding: a batch the server marshals for
// its subscribers — here an API append — goes out in the encoding
// egwalker.MarshalBatches picks: one event in the legacy codec, which is
// the smaller for it (TestMarshalBatchesPicksTheSmallerEncoding), and a
// longer typed run columnar.
func TestAppendFansOutTheSmallerEncoding(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: -1})
	cs, ss := net.Pipe()
	defer cs.Close()
	go func() {
		defer ss.Close()
		srv.ServeConn(ss)
	}()
	pc := netsync.NewPeerConn(cs)
	if err := pc.SendHello(netsync.Hello{DocID: "d", Compact: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.RecvFrameRaw(); err != nil { // the empty catch-up
		t.Fatal(err)
	}
	src := egwalker.NewDoc("api")
	for _, text := range []string{"x", "typed run"} {
		v := src.Version()
		if err := src.Insert(src.Len(), text); err != nil {
			t.Fatal(err)
		}
		evs, err := src.EventsSince(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Append("d", evs); err != nil {
			t.Fatal(err)
		}
		f, err := pc.RecvFrameRaw()
		if err != nil {
			t.Fatal(err)
		}
		want, err := egwalker.MarshalBatches(evs)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 1 || !bytes.Equal(f.Raw, want[0]) || colenc.Sniff(f.Raw) != (len(evs) > 1) {
			t.Fatalf("append of %d events reached the subscriber as % x (columnar %v)", len(evs), f.Raw, colenc.Sniff(f.Raw))
		}
	}
}

// TestRepeatedUploadRelayedOnce: a batch whose every event the document
// holds already reaches no subscriber, whichever state the document is
// in: three appends of the same events relay them once.
func TestRepeatedUploadRelayedOnce(t *testing.T) {
	for _, materialized := range []bool{false, true} {
		t.Run(fmt.Sprintf("materialized=%v", materialized), func(t *testing.T) {
			srv := newTestServer(t, ServerOptions{FlushInterval: -1})
			if materialized {
				if err := srv.With("d", func(ds *DocStore) error { return ds.Materialize() }); err != nil {
					t.Fatal(err)
				}
			}
			cs, ss := net.Pipe()
			defer cs.Close()
			serveOne(t, srv, ss)
			pc := netsync.NewPeerConn(cs)
			if err := pc.SendHello(netsync.Hello{DocID: "d", Compact: true}); err != nil {
				t.Fatal(err)
			}
			cs.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := pc.RecvFrameRaw(); err != nil { // the empty catch-up
				t.Fatal(err)
			}
			w := egwalker.NewDoc("writer")
			if err := w.Insert(0, "hello world"); err != nil {
				t.Fatal(err)
			}
			events := w.Events()
			for range 3 {
				if err := srv.Append("d", events); err != nil {
					t.Fatal(err)
				}
			}
			// One more event marks the end of what the repeats could send.
			v := w.Version()
			if err := w.Insert(w.Len(), "!"); err != nil {
				t.Fatal(err)
			}
			last, err := w.EventsSince(v)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Append("d", last); err != nil {
				t.Fatal(err)
			}
			frames, got := 0, 0
			for end := false; !end; {
				evs, _, _, err := pc.Recv()
				if err != nil {
					t.Fatal(err)
				}
				frames, got = frames+1, got+len(evs)
				end = len(evs) > 0 && evs[len(evs)-1].ID == last[0].ID
			}
			if got != len(events)+1 || frames > 2 {
				t.Fatalf("the subscriber got %d events in %d frames, want %d in at most 2", got, frames, len(events)+1)
			}
			if m := srv.MetricsSnapshot(); (m.MaterializedDocs == 1) != materialized {
				t.Fatalf("%d documents materialized, want materialized=%v", m.MaterializedDocs, materialized)
			}
		})
	}
}
