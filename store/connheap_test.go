package store

import (
	"fmt"
	"runtime"
	"testing"

	"egwalker"
	"egwalker/internal/bufconn"
	"egwalker/netsync"
)

// TestIdleConnHeapBytes: what one idle subscriber holds on the heap, both
// ends of its connection — two PeerConns' bufio buffers (16 KiB of it),
// the outbox, the pipe. 18.75 KB when this was written; the bound leaves
// room for a few hundred bytes, not for a per-connection scratch buffer
// or for the hello (its summary, its payload) staying reachable from the
// serve loop, which is what it caught first.
func TestIdleConnHeapBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes differ under the race detector")
	}
	srv := newTestServer(t, ServerOptions{FlushInterval: -1, HandshakeTimeout: -1})
	seed := egwalker.NewDoc("seed")
	if err := seed.Insert(0, "hello world"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Append("d", seed.Events()); err != nil {
		t.Fatal(err)
	}
	ln := bufconn.Listen(1 << 20)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(c)
		}
	}()
	var keep []*netsync.PeerConn
	join := func() {
		c, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		pc := netsync.NewPeerConn(c)
		if err := pc.SendHello(netsync.Hello{DocID: "d", Compact: true, Summary: seed.Summary()}); err != nil {
			t.Fatal(err)
		}
		if _, err := pc.RecvFrame(); err != nil {
			t.Fatal(err)
		}
		keep = append(keep, pc)
	}
	join()
	base := retainedHeap()
	for i := 0; i < 1000; i++ {
		join()
	}
	after := retainedHeap()
	per := float64(after-base) / 1000
	t.Logf("heap per idle connection: %.0f B", per)
	if per > 19000 {
		t.Fatalf("an idle connection holds %.0f B of heap, want at most 19000", per)
	}
	runtime.KeepAlive(keep)
	ln.Close()
}

// TestJournalDocHeapBytes: what one document held open journal-only under
// a Server costs on the heap after a few uploads — its entry in the open
// set and the LRU, the DocStore with its known-ID runs, the open WAL
// segment. This is the figure -max-journal multiplies (README). 1.66 KB
// since the store keeps its state in one word and the server builds no
// hook closures for it nor copies its options into the entry, 1.88
// before, 1.91 before the entry built its peers map at its first
// subscriber (the benchmark's store.journal_doc_heap_bytes, a lazily
// opened DocStore with no Server around it, reads about 1.2 KB); the bound
// leaves about 320 bytes, not room for a per-document buffer or a
// materialized Doc kept by mistake.
func TestJournalDocHeapBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes differ under the race detector")
	}
	const docs = 256
	srv := newTestServer(t, ServerOptions{FlushInterval: -1, MaxJournalDocs: 2 * docs})
	w := egwalker.NewDoc("writer")
	var uploads [][]egwalker.Event
	for _, word := range []string{"hello ", "journal ", "world"} {
		v := w.Version()
		if err := w.Insert(w.Len(), word); err != nil {
			t.Fatal(err)
		}
		events, err := w.EventsSince(v)
		if err != nil {
			t.Fatal(err)
		}
		uploads = append(uploads, events)
	}
	host := func(i int) {
		for _, events := range uploads {
			if err := srv.Append(fmt.Sprintf("doc-%04d", i), events); err != nil {
				t.Fatal(err)
			}
		}
	}
	host(0)
	base := retainedHeap()
	for i := 1; i <= docs; i++ {
		host(i)
	}
	after := retainedHeap()
	if m := srv.MetricsSnapshot(); m.OpenDocs != docs+1 || m.MaterializedDocs != 0 {
		t.Fatalf("%d documents open, %d materialized; want %d open, none materialized", m.OpenDocs, m.MaterializedDocs, docs+1)
	}
	per := float64(after-base) / docs
	t.Logf("heap per journal-only document: %.0f B", per)
	if per > 1976 {
		t.Fatalf("a journal-only document holds %.0f B of heap, want at most 1976", per)
	}
}

// retainedHeap is the live heap after two collections.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
