package store

import (
	"container/list"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"egwalker"
	"egwalker/internal/colenc"
	"egwalker/netsync"
)

// TestFanoutForwardsCompact: every subscriber decodes the compact
// encoding, so an upload is forwarded to each one verbatim, and a batch
// appended through the API (which arrives decoded) is marshalled once,
// compact, for all of them.
func TestFanoutForwardsCompact(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Millisecond})
	const docID = "fanout-compact"

	dial := func() *netsync.PeerConn {
		t.Helper()
		cs, ss := net.Pipe()
		t.Cleanup(func() { cs.Close() })
		serveOne(t, srv, ss)
		pc := netsync.NewPeerConn(cs)
		if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
			t.Fatal(err)
		}
		cs.SetReadDeadline(time.Now().Add(10 * time.Second))
		// Drain the (empty) catch-up frame.
		if _, _, _, err := pc.Recv(); err != nil {
			t.Fatal(err)
		}
		return pc
	}
	subs := []*netsync.PeerConn{dial(), dial()}
	uploader := dial()

	seed := egwalker.NewDoc("uploader")
	if err := seed.Insert(0, "compact upload payload"); err != nil {
		t.Fatal(err)
	}
	upload, err := egwalker.MarshalEventsCompact(seed.Events())
	if err != nil {
		t.Fatal(err)
	}
	if err := uploader.SendRaw(upload); err != nil {
		t.Fatal(err)
	}
	for i, pc := range subs {
		_, raw, _, err := pc.Recv()
		if err != nil {
			t.Fatalf("subscriber %d: %v", i, err)
		}
		if string(raw) != string(upload) {
			t.Fatalf("subscriber %d did not receive the uploader's bytes verbatim", i)
		}
	}

	more := egwalker.NewDoc("api")
	if err := more.Insert(0, "appended "); err != nil {
		t.Fatal(err)
	}
	if err := srv.Append(docID, more.Events()); err != nil {
		t.Fatal(err)
	}
	for i, pc := range append(subs, uploader) {
		evs, raw, _, err := pc.Recv()
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		if !colenc.Sniff(raw) || len(evs) != len(more.Events()) {
			t.Fatalf("peer %d got an appended batch of %d events, compact=%v", i, len(evs), colenc.Sniff(raw))
		}
	}
}

// TestCloseWaitsForPinnedWork (regression): Close used to close every
// DocStore regardless of refcounts, so an in-flight With/ServeConn
// would Apply into a closed store — a shutdown race visible under
// -race and as spurious "store is closed" errors. Close must sever
// connections and wait for pins to drain first.
func TestCloseWaitsForPinnedWork(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Millisecond})
	const docID = "close-race"
	if err := srv.With(docID, func(ds *DocStore) error { return ds.Insert(0, "seed") }); err != nil {
		t.Fatal(err)
	}

	// A live subscriber parked in Recv: Close must sever it rather
	// than hang, and must not yank the store from under it.
	cs, ss := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(ss) }()
	pc := netsync.NewPeerConn(cs)
	if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	cs.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, _, err := pc.Recv(); err != nil {
		t.Fatal(err)
	}

	// A slow pinned operation in flight while Close runs.
	started := make(chan struct{})
	insertDone := make(chan error, 1)
	go func() {
		insertDone <- srv.With(docID, func(ds *DocStore) error {
			close(started)
			time.Sleep(100 * time.Millisecond)
			return ds.Insert(0, "x")
		})
	}()
	<-started

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-insertDone; err != nil {
		t.Fatalf("pinned insert raced shutdown: %v", err)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn still blocked after Close — peer not severed")
	}
	cs.Close()
}

// TestSaturatedCompactorReleasesAndEvicts (regression): when the
// compaction queue was full, scheduleCompact rolled its pin back with a
// bare refs-- that skipped eviction, leaving over-cap documents
// materialized until some unrelated release happened by. The rollback
// must run the ordinary release path.
func TestSaturatedCompactorReleasesAndEvicts(t *testing.T) {
	// Hand-built server: no background loops, an unbuffered compaction
	// queue nobody reads — scheduleCompact's saturated branch is taken
	// deterministically.
	s := &Server{
		root:      t.TempDir(),
		opts:      ServerOptions{MaxOpenDocs: 1}.withDefaults(),
		metrics:   &Metrics{},
		open:      make(map[string]*entry),
		lru:       list.New(),
		compactCh: make(chan *entry),
		done:      make(chan struct{}),
	}
	defer s.Close()

	a, err := s.acquire("doc-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ds.Insert(0, "a"); err != nil {
		t.Fatal(err)
	}
	s.release(a) // cap 1, one materialized doc: nothing to evict yet

	b, err := s.acquire("doc-b")
	if err != nil {
		t.Fatal(err)
	}
	defer s.release(b)
	if err := b.ds.Insert(0, "b"); err != nil {
		t.Fatal(err)
	}
	// Two materialized docs, cap 1; a is idle but nothing has run
	// eviction since it materialized. The saturated rollback must.
	if got := s.MetricsSnapshot().MaterializedDocs; got != 2 {
		t.Fatalf("materialized = %d before schedule, want 2", got)
	}
	s.scheduleCompact(a)
	if a.ds.loadState().inMemory() {
		t.Fatal("saturated compactor rollback left the idle over-cap document materialized")
	}
	if got := s.MetricsSnapshot().MaterializedDocs; got != 1 {
		t.Fatalf("materialized = %d after saturated rollback, want 1", got)
	}
}

// TestResumeFallbackSurfaced (regression): when a resume diff could
// not be built, subscribe swallowed the error and silently served a
// full catch-up — correct, but invisible: a fleet quietly
// re-downloading full histories looked healthy. The degradation must
// count (resume_fallbacks) and log.
//
// The journal-scan seam makes the failure reproducible: an event that
// is causally valid (no missing parents — it passes the journal's
// structural validation) but semantically invalid (an insert at
// position 5 of an empty document) journals cleanly yet fails to
// replay, so EventsSinceSummary's materialization errors. The block
// serve path, which never replays, still works.
func TestResumeFallbackSurfaced(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	root := t.TempDir()
	const docID = "resume-fb"

	ds, err := OpenLazy(root, docID, "server", Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []egwalker.Event{{ID: egwalker.EventID{Agent: "evil", Seq: 0}, Insert: true, Pos: 5, Content: 'x'}}
	if _, err := ds.IngestBatch(bad, nil); err != nil {
		t.Fatal(err)
	}
	if ds.loadState().inMemory() {
		t.Fatal("semantically-invalid batch should journal without materializing")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(root, ServerOptions{
		FlushInterval: time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// A resume presenting some non-empty summary: the diff needs the
	// materialized doc, which cannot be built.
	stranger := egwalker.NewDoc("stranger")
	if err := stranger.Insert(0, "elsewhere"); err != nil {
		t.Fatal(err)
	}
	cs, ss := net.Pipe()
	serveOne(t, srv, ss)
	defer cs.Close()
	pc := netsync.NewPeerConn(cs)
	if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: stranger.Summary()}); err != nil {
		t.Fatal(err)
	}
	cs.SetReadDeadline(time.Now().Add(10 * time.Second))
	evs, raw, done, err := pc.Recv()
	if err != nil || done {
		t.Fatalf("block catch-up: done=%v err=%v", done, err)
	}
	if len(raw) == 0 || len(evs) != 1 {
		t.Fatalf("block catch-up delivered %d events (raw %d bytes), want the journaled event", len(evs), len(raw))
	}

	m := srv.MetricsSnapshot()
	if m.ResumeFallbacks != 1 {
		t.Fatalf("resume_fallbacks = %d, want 1", m.ResumeFallbacks)
	}
	if m.Resumes != 0 {
		t.Fatalf("resumes = %d, want 0 (the resume failed)", m.Resumes)
	}
	if m.BlockServes != 1 {
		t.Fatalf("block_serves = %d, want 1 (degraded join still serves blocks)", m.BlockServes)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "resume") && strings.Contains(l, docID) {
			return
		}
	}
	t.Fatalf("no resume-degradation warning logged; logs: %q", logs)
}
