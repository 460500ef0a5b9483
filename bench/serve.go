package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// host is one store.Server behind an in-memory listener. Clients, the
// server and the generator share the process; connections are bufconn
// pairs. There is no accept loop: dial pops the server end itself, so each
// client knows its own handler.
type host struct {
	srv   *Server
	ln    *Listener
	wg    sync.WaitGroup
	peers []*peer
}

func startHost(root string, fs StoreFS) (*host, error) {
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, err
	}
	srv, err := newServer(root, fs)
	if err != nil {
		return nil, err
	}
	return &host{srv: srv, ln: listen()}, nil
}

// peer is one client connection and the server handler paired with it.
type peer struct {
	conn   net.Conn
	pc     *PeerConn
	sconn  *countConn    // the server's end
	served chan struct{} // closed when the server's handler has returned
	err    error         // the handler's result, valid after served
}

// countConn counts what the server writes to one connection.
type countConn struct {
	net.Conn
	written atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written.Add(int64(n))
	return n, err
}

func (h *host) dial() (*peer, error) {
	c, err := h.ln.Dial()
	if err != nil {
		return nil, err
	}
	s, err := h.ln.Accept()
	if err != nil {
		c.Close()
		return nil, err
	}
	p := &peer{conn: c, pc: newPeerConn(c), sconn: &countConn{Conn: s}, served: make(chan struct{})}
	h.peers = append(h.peers, p)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		p.err = serveConn(h.srv, p.sconn)
		p.sconn.Close()
		close(p.served)
	}()
	return p, nil
}

// hangUp closes the client's end and waits for the server's handler. A
// handler ends with nil or an error from the closed pipe; both are a clean
// hang-up here.
func (p *peer) hangUp() {
	p.conn.Close()
	<-p.served
}

// close hangs up whatever is still connected and closes the server.
func (h *host) close() (MetricsSnapshot, error) {
	for _, p := range h.peers {
		p.conn.Close()
	}
	h.wg.Wait()
	m := serverMetrics(h.srv)
	h.ln.Close()
	return m, serverClose(h.srv)
}

// copyDocDir copies a populated document directory to dstRoot as document
// dstID, and makes the copy's (empty) LOCK file — without it the first open
// of the copy would create one, and a file creation on a journaling
// filesystem inside a timed reconnect is milliseconds of noise.
func copyDocDir(fs *memFS, srcRoot, dstRoot, docID, dstID string) error {
	dst := filepath.Join(dstRoot, dstID)
	if err := fs.copyDir(filepath.Join(srcRoot, docID), dst); err != nil {
		return err
	}
	lock := filepath.Join(dst, "LOCK")
	if _, err := os.Stat(lock); err == nil {
		return nil // a copy made in an earlier round left it
	}
	return os.WriteFile(lock, nil, 0o666)
}

// subscriber is one fan-out receiver: a goroutine that decodes every frame
// the server forwards and reports when the burst in flight has reached all
// subscribers.
type subscriber struct {
	p   *peer
	got [][]Event // each decoded burst, in arrival order; checked after the unit
	err error
}

// fanoutGroup is a writer and its subscribers on one document.
type fanoutGroup struct {
	writer  *peer
	subs    []*subscriber
	pending atomic.Int32
	ack     chan struct{}
	failed  chan struct{} // closed when a subscriber's connection breaks
	fail    sync.Once
	wg      sync.WaitGroup

	// cur publishes the unit in flight to the subscribers' spans.
	tr      *tracer
	curRoot atomic.Int32
	curSent atomic.Int64
}

// join connects one client with a summary hello that covers the whole
// document, so the catch-up is empty and the server never builds the
// document.
func joinCovered(h *host, docID string, summary VersionSummary) (*peer, error) {
	p, err := h.dial()
	if err != nil {
		return nil, err
	}
	if err := sendHello(p.pc, docID, summary); err != nil {
		return nil, err
	}
	evs, err := recvEvents(p.pc)
	if err != nil {
		return nil, err
	}
	if len(evs) != 0 {
		return nil, fmt.Errorf("%s: catch-up of %d events for a client that holds everything", docID, len(evs))
	}
	return p, nil
}

func newFanoutGroup(h *host, docID string, summary VersionSummary, subs int, tr *tracer) (*fanoutGroup, error) {
	g := &fanoutGroup{ack: make(chan struct{}, 1), failed: make(chan struct{}), tr: tr}
	g.curRoot.Store(-1)
	var err error
	if g.writer, err = joinCovered(h, docID, summary); err != nil {
		return nil, err
	}
	for i := 0; i < subs; i++ {
		p, err := joinCovered(h, docID, summary)
		if err != nil {
			return nil, err
		}
		s := &subscriber{p: p}
		g.subs = append(g.subs, s)
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			for {
				evs, err := recvEvents(p.pc)
				if err != nil {
					if err != io.EOF {
						s.err = err
						g.fail.Do(func() { close(g.failed) })
					}
					return
				}
				if root := g.curRoot.Load(); root >= 0 {
					g.tr.add("netsync.RecvFrame", root, g.curSent.Load(), nowNs())
				}
				s.got = append(s.got, evs)
				if g.pending.Add(-1) == 0 {
					g.ack <- struct{}{}
				}
			}
		}()
	}
	return g, nil
}

// send uploads one burst and waits until every subscriber has decoded it.
func (g *fanoutGroup) send(raw []byte, root int32) error {
	g.pending.Store(int32(len(g.subs)))
	g.curSent.Store(nowNs())
	g.curRoot.Store(root)
	sp := g.tr.child("netsync.SendRaw", root)
	err := sendRaw(g.writer.pc, raw)
	g.tr.end(sp)
	if err != nil {
		return err
	}
	sp = g.tr.child("server.fanout_wait", root)
	defer g.tr.end(sp)
	select {
	case <-g.ack:
		return nil
	case <-g.failed:
		return fmt.Errorf("fan-out: a subscriber's connection broke")
	}
}

// close hangs everything up and waits for the subscriber goroutines.
func (g *fanoutGroup) close() error {
	g.writer.hangUp()
	for _, s := range g.subs {
		s.p.hangUp()
	}
	g.wg.Wait()
	for _, s := range g.subs {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}
