package store

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"egwalker"
	"egwalker/netsync"
)

// TestServerEvictionVsPinnedChurn: 50 goroutines churn writes and
// short-lived subscriptions across far more documents than the LRU cap
// admits. Refcount pinning must guarantee no document is evicted (and
// its store closed) while in use — any violation surfaces as a
// "store is closed" error from a pinned operation, or as a data race
// under -race. Afterwards every document must reopen cleanly.
func TestServerEvictionVsPinnedChurn(t *testing.T) {
	const (
		cap        = 4
		docs       = 24
		goroutines = 50
	)
	iters := 30
	if testing.Short() {
		iters = 12
	}
	srv := newTestServer(t, ServerOptions{MaxOpenDocs: cap, FlushInterval: time.Millisecond})

	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("churn-%02d", rng.Intn(docs))
				switch rng.Intn(3) {
				case 0, 1:
					err := srv.With(id, func(ds *DocStore) error {
						return ds.Insert(0, "x")
					})
					if err != nil {
						errCh <- fmt.Errorf("g%d With(%s): %w", g, id, err)
						return
					}
				default:
					// A short-lived subscription: pins the doc for the
					// life of the connection, receives the snapshot,
					// hangs up.
					cs, ss := net.Pipe()
					served := make(chan struct{})
					go func() {
						defer close(served)
						defer ss.Close()
						srv.ServeConn(ss)
					}()
					pc := netsync.NewPeerConn(cs)
					doc := egwalker.NewDoc(fmt.Sprintf("sub-%d-%d", g, i))
					if err := pc.SendHello(netsync.Hello{DocID: id, Compact: true}); err != nil {
						errCh <- fmt.Errorf("g%d hello(%s): %w", g, id, err)
						cs.Close()
						return
					}
					evs, _, done, err := pc.Recv()
					if err != nil || done {
						errCh <- fmt.Errorf("g%d snapshot(%s): done=%v %w", g, id, done, err)
						cs.Close()
						return
					}
					if _, err := doc.Apply(evs); err != nil {
						errCh <- fmt.Errorf("g%d apply(%s): %w", g, id, err)
						cs.Close()
						return
					}
					cs.Close()
					<-served
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: the LRU must settle back under its cap. Settling is
	// asynchronous — the group-commit flusher pins every document
	// briefly each interval, and eviction skips pinned documents — so
	// poll briefly rather than sampling one instant.
	deadline := time.Now().Add(5 * time.Second)
	for srv.MetricsSnapshot().MaterializedDocs > cap {
		if time.Now().After(deadline) {
			t.Fatalf("%d documents materialized after churn, cap %d", srv.MetricsSnapshot().MaterializedDocs, cap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	total := 0
	for i := 0; i < docs; i++ {
		id := fmt.Sprintf("churn-%02d", i)
		err := srv.With(id, func(ds *DocStore) error {
			total += ds.NumEvents()
			return nil
		})
		if err != nil {
			t.Fatalf("reopen %s: %v", id, err)
		}
	}
	if total == 0 {
		t.Fatal("churn produced no events")
	}
	m := srv.MetricsSnapshot()
	if m.Evictions == 0 {
		t.Error("no evictions recorded — churn did not exercise the LRU")
	}
	if m.Subscribers != 0 {
		t.Errorf("subscriber gauge leaked: %d", m.Subscribers)
	}
}
