package store

import (
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
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	join()
	base := heap()
	for i := 0; i < 1000; i++ {
		join()
	}
	after := heap()
	per := float64(after-base) / 1000
	t.Logf("heap per idle connection: %.0f B", per)
	if per > 19000 {
		t.Fatalf("an idle connection holds %.0f B of heap, want at most 19000", per)
	}
	runtime.KeepAlive(keep)
	ln.Close()
}
