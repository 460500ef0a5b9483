package cluster

import (
	"net"
	"testing"
	"time"

	"egwalker/store"
)

// TestConnectServingStalledListener: a listener that accepts (or
// queues) connections but never speaks the protocol must not hang a
// client forever. With a handshake timeout, ConnectServing gives up on
// each hop quickly and returns an error.
func TestConnectServingStalledListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Accept and hold connections open without ever writing a frame —
	// the worst kind of stall: the dial and the hello write succeed.
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	d := &Dialer{Addrs: []string{ln.Addr().String()}, HandshakeTimeout: 200 * time.Millisecond}
	start := time.Now()
	_, _, err = d.ConnectServing("doc", nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ConnectServing succeeded against a mute listener")
	}
	// 8 redirect hops at <= 200ms each, plus slack. Without the
	// deadline this blocks until the test binary times out.
	if elapsed > 10*time.Second {
		t.Fatalf("ConnectServing took %v against a stalled listener", elapsed)
	}
}

// TestServeConnSilentClient: a client that connects and never sends a
// hello must not pin a server goroutine forever. The hello read is
// bounded by the node's handshake timeout.
func TestServeConnSilentClient(t *testing.T) {
	root := t.TempDir()
	addr := "127.0.0.1:39999" // never dialed; only names the node
	n, err := NewNode(root, store.ServerOptions{FlushInterval: 5 * time.Millisecond}, Options{
		Self:             addr,
		Peers:            []string{addr},
		HandshakeTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() {
		done <- n.ServeConn(server)
		server.Close()
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ServeConn returned nil for a silent client")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn still blocked on a silent client after 5s")
	}
}
