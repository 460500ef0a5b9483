package store

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"egwalker"
	"egwalker/netsync"
)

// coldCompactJoin joins docID cold with a compact hello over a pipe and
// reads until the joiner holds want events, returning the joined doc.
func coldCompactJoin(t *testing.T, srv *Server, docID string, want int) *egwalker.Doc {
	t.Helper()
	doc, _ := coldCompactJoinFrames(t, srv, docID, want)
	return doc
}

// coldCompactJoinFrames is coldCompactJoin, also returning the frames the
// joiner read.
func coldCompactJoinFrames(t *testing.T, srv *Server, docID string, want int) (*egwalker.Doc, [][]byte) {
	t.Helper()
	cs, ss := net.Pipe()
	serveOne(t, srv, ss)
	defer cs.Close()
	pc := netsync.NewPeerConn(cs)
	if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	doc := egwalker.NewDoc("cold-joiner")
	var frames [][]byte
	cs.SetReadDeadline(time.Now().Add(10 * time.Second))
	for doc.NumEvents() < want {
		evs, raw, done, err := pc.Recv()
		if err != nil {
			t.Fatalf("cold join with %d/%d events: %v", doc.NumEvents(), want, err)
		}
		if done {
			break
		}
		frames = append(frames, slices.Clone(raw))
		if _, err := doc.Apply(evs); err != nil {
			t.Fatal(err)
		}
	}
	if doc.NumEvents() != want {
		t.Fatalf("cold join delivered %d events, want %d", doc.NumEvents(), want)
	}
	return doc, frames
}

// TestBlockServeNoMaterialization: a cold compact join against a
// write-mostly document is served from the journal's encoded blocks —
// the server never constructs the egwalker.Doc — and still delivers the
// exact history. Legacy serving (Text) then materializes exactly once.
func TestBlockServeNoMaterialization(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Millisecond})
	const docID = "blocks"

	seed := egwalker.NewDoc("writer")
	for i := 0; i < 200; i++ {
		if err := seed.Insert(i, "b"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Append(docID, seed.Events()); err != nil {
		t.Fatal(err)
	}
	if got := srv.MetricsSnapshot().LazyMaterializations; got != 0 {
		t.Fatalf("append materialized the document (%d materializations)", got)
	}

	doc := coldCompactJoin(t, srv, docID, 200)
	if doc.Text() != seed.Text() {
		t.Fatalf("joined text %q, want %q", doc.Text(), seed.Text())
	}
	m := srv.MetricsSnapshot()
	if m.BlockServes != 1 {
		t.Fatalf("block_serves = %d, want 1", m.BlockServes)
	}
	if m.BlockServeEvents != 200 {
		t.Fatalf("block_serve_events = %d, want 200", m.BlockServeEvents)
	}
	if m.LazyMaterializations != 0 {
		t.Fatalf("cold compact join materialized the document (%d materializations)", m.LazyMaterializations)
	}
	if m.MaterializedDocs != 0 {
		t.Fatalf("materialized_docs = %d, want 0", m.MaterializedDocs)
	}

	// A legacy read needs the real document: exactly one materialization.
	text, err := srv.Text(docID)
	if err != nil {
		t.Fatal(err)
	}
	if text != seed.Text() {
		t.Fatalf("server text %q, want %q", text, seed.Text())
	}
	if got := srv.MetricsSnapshot().LazyMaterializations; got != 1 {
		t.Fatalf("lazy_materializations = %d, want 1", got)
	}
}

// TestBlockServeAfterCompaction: once a document has a (compact)
// snapshot, a cold compact join streams snapshot frame + WAL tail — and
// still without a live materialization.
func TestBlockServeAfterCompaction(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Millisecond})
	const docID = "blocks-snap"

	seed := egwalker.NewDoc("writer")
	for i := 0; i < 120; i++ {
		if err := seed.Insert(i, "c"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Append(docID, seed.Events()); err != nil {
		t.Fatal(err)
	}
	// Compaction legitimately materializes (it must replay to
	// snapshot); shed the doc again so the join below starts cold.
	err := srv.With(docID, func(ds *DocStore) error {
		if err := ds.Compact(); err != nil {
			return err
		}
		return ds.dematerialize()
	})
	if err != nil {
		t.Fatal(err)
	}
	base := srv.MetricsSnapshot().LazyMaterializations

	for i := 120; i < 150; i++ {
		if err := seed.Insert(i, "d"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Append(docID, seed.Events()[120:]); err != nil {
		t.Fatal(err)
	}

	doc := coldCompactJoin(t, srv, docID, 150)
	if doc.Text() != seed.Text() {
		t.Fatalf("joined text diverges")
	}
	m := srv.MetricsSnapshot()
	if m.BlockServes != 1 {
		t.Fatalf("block_serves = %d, want 1", m.BlockServes)
	}
	if m.LazyMaterializations != base {
		t.Fatalf("join materialized: %d → %d", base, m.LazyMaterializations)
	}
}

// TestServerManyDocsBlockServe: host a population of write-mostly
// documents far beyond both caps; appends and cold compact joins never
// materialize anything, the journal population respects its cap, and a
// sampled cold join still delivers exact content.
func TestServerManyDocsBlockServe(t *testing.T) {
	docs := 10000
	if testing.Short() {
		docs = 1000
	}
	const perDoc = 30
	srv := newTestServer(t, ServerOptions{
		MaxOpenDocs:    8,
		MaxJournalDocs: 64,
		FlushInterval:  10 * time.Millisecond,
	})

	seed := egwalker.NewDoc("writer")
	for i := 0; i < perDoc; i++ {
		if err := seed.Insert(i, "m"); err != nil {
			t.Fatal(err)
		}
	}
	evs := seed.Events()
	for i := 0; i < docs; i++ {
		if err := srv.Append(fmt.Sprintf("many-%05d", i), evs); err != nil {
			t.Fatalf("append doc %d: %v", i, err)
		}
	}
	m := srv.MetricsSnapshot()
	if m.LazyMaterializations != 0 {
		t.Fatalf("populating %d docs materialized %d of them", docs, m.LazyMaterializations)
	}
	if m.MaterializedDocs != 0 {
		t.Fatalf("materialized_docs = %d after write-only population", m.MaterializedDocs)
	}
	// The journal population cap is enforced asynchronously (pinned
	// documents are skipped); after quiescing it must settle.
	deadline := time.Now().Add(5 * time.Second)
	for srv.MetricsSnapshot().OpenDocs > 64 {
		if time.Now().After(deadline) {
			t.Fatalf("journal population %d never settled under cap 64", srv.MetricsSnapshot().OpenDocs)
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, i := range []int{0, docs / 2, docs - 1} {
		doc := coldCompactJoin(t, srv, fmt.Sprintf("many-%05d", i), perDoc)
		if doc.Text() != seed.Text() {
			t.Fatalf("doc %d text diverges", i)
		}
	}
	m = srv.MetricsSnapshot()
	if m.BlockServes != 3 {
		t.Fatalf("block_serves = %d, want 3", m.BlockServes)
	}
	if m.LazyMaterializations != 0 {
		t.Fatalf("cold joins materialized %d documents", m.LazyMaterializations)
	}

	text, err := srv.Text("many-00000")
	if err != nil {
		t.Fatal(err)
	}
	if text != seed.Text() {
		t.Fatalf("server text diverges")
	}
	if got := srv.MetricsSnapshot().LazyMaterializations; got != 1 {
		t.Fatalf("lazy_materializations = %d, want 1", got)
	}
}
