package store

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"egwalker"
	"egwalker/internal/colenc"
	"egwalker/netsync"
)

// countingConn counts the bytes read from the underlying connection —
// the client-observed download size of a join.
type countingConn struct {
	net.Conn
	n *int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	atomic.AddInt64(c.n, int64(n))
	return n, err
}

// join connects a fresh client to the server's doc and returns how many
// wire bytes the full catch-up cost.
func join(t *testing.T, srv *Server, docID string, want int) (int64, *egwalker.Doc) {
	t.Helper()
	var bytesRead int64
	cs, ss := net.Pipe()
	serveOne(t, srv, ss)
	doc := egwalker.NewDoc("joiner")
	c, err := netsync.Dial(doc, countingConn{cs, &bytesRead}, docID)
	if err != nil {
		t.Fatal(err)
	}
	for doc.NumEvents() < want {
		if _, err := c.Receive(); err != nil {
			t.Fatalf("receive with %d/%d events: %v", doc.NumEvents(), want, err)
		}
	}
	cs.Close()
	return atomic.LoadInt64(&bytesRead), doc
}

// TestCompactSnapshotJoin: a joining client downloads the history in
// well under half the bytes of its legacy batch encoding, and the
// document it builds is identical.
func TestCompactSnapshotJoin(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: -1})
	const docID = "compact-join"

	seed := egwalker.NewDoc("seed")
	for i := 0; i < 500; i++ {
		if err := seed.Insert(i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Append(docID, seed.Events()); err != nil {
		t.Fatal(err)
	}
	legacy, err := egwalker.MarshalEvents(seed.Events())
	if err != nil {
		t.Fatal(err)
	}
	legacyBytes := int64(len(legacy))

	compactBytes, compactDoc := join(t, srv, docID, 500)
	if compactDoc.Text() != seed.Text() {
		t.Fatalf("joined doc diverges: %q, seed %q", compactDoc.Text(), seed.Text())
	}
	if compactBytes*2 > legacyBytes {
		t.Fatalf("compact join cost %d bytes, legacy encoding %d — expected <= half", compactBytes, legacyBytes)
	}
	t.Logf("join bytes: legacy encoding=%d compact join=%d (%.1f%%)",
		legacyBytes, compactBytes, 100*float64(compactBytes)/float64(legacyBytes))
}

// TestCompactWALBlocksRecover: a large group commit journals columnar
// WAL blocks (visible as the columnar magic inside the segment), and
// a cold reopen replays them identically.
func TestCompactWALBlocksRecover(t *testing.T) {
	dir := t.TempDir()
	ds, err := Open(dir, "doc", "srv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := egwalker.NewDoc("writer")
	if err := src.Insert(0, "a batch large enough to journal as a columnar block"); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Apply(src.Events()); err != nil {
		t.Fatal(err)
	}
	wantText := ds.Text()
	wantEvents := ds.NumEvents()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// The segment on disk must actually contain a columnar payload.
	found := false
	entries, err := os.ReadDir(filepath.Join(dir, "doc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, "doc", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, colenc.Magic[:]) {
			found = true
		}
	}
	if !found {
		t.Fatal("no columnar block found in any segment")
	}

	re, err := Open(dir, "doc", "srv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Doc().Text() != wantText || re.Doc().NumEvents() != wantEvents {
		t.Fatalf("recovery mismatch: %q (%d events), want %q (%d)",
			re.Doc().Text(), re.Doc().NumEvents(), wantText, wantEvents)
	}
}
