package cluster

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"egwalker"
	"egwalker/netsync"
	"egwalker/store"
)

// Options configures one cluster node. Self and Peers are the static
// membership: every node must be started with the same Peers set (the
// ring is a pure function of it) and a Self that appears in it.
type Options struct {
	// Self is this node's advertised address — the one peers dial and
	// redirects name. Must be an element of Peers.
	Self string
	// Peers is the full cluster membership, Self included.
	Peers []string
	// Replication is the replica-set size R per document (primary plus
	// R-1 replicas). Defaults to min(3, len(Peers)); clamped to the
	// node count.
	Replication int
	// VNodes is the virtual-node count per server on the ring.
	// Defaults to DefaultVNodes.
	VNodes int
	// GracePeriod is how long a peer must stay unreachable before its
	// documents fail over to the next replica. Defaults to 5s.
	GracePeriod time.Duration
	// AntiEntropyEvery is the period of the version exchange each
	// replica link runs to heal missed pushes. Defaults to 5s.
	AntiEntropyEvery time.Duration
	// HandshakeTimeout bounds the hello read on accepted connections
	// and the hello write on outbound replica links, so a stalled or
	// silent peer cannot pin a goroutine forever. Defaults to 10s;
	// negative disables.
	HandshakeTimeout time.Duration
	// Dial opens a connection to a peer (or proxy target). Defaults to
	// TCP with a 5s timeout. Tests inject partitions here.
	Dial func(addr string) (net.Conn, error)
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() (Options, error) {
	if o.Self == "" {
		return o, fmt.Errorf("cluster: Options.Self is required")
	}
	found := false
	for _, p := range o.Peers {
		if p == o.Self {
			found = true
		}
	}
	if !found {
		return o, fmt.Errorf("cluster: Self %q not in Peers %v", o.Self, o.Peers)
	}
	if o.Replication == 0 {
		o.Replication = 3
	}
	if o.Replication > len(o.Peers) {
		o.Replication = len(o.Peers)
	}
	if o.GracePeriod == 0 {
		o.GracePeriod = 5 * time.Second
	}
	if o.AntiEntropyEvery == 0 {
		o.AntiEntropyEvery = 5 * time.Second
	}
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	return o, nil
}

// Node is one member of the cluster: a store.Server plus the routing
// and replication that make it part of a replica group. Run ServeConn
// per accepted connection, exactly as with store.Server.
type Node struct {
	opts   Options
	ring   *Ring
	srv    *store.Server
	repl   *replicator
	repair *repairer
	health *healthTable

	mu     sync.Mutex
	closed bool
}

// NewNode opens (or creates) the store at root and wires it into the
// cluster described by opts. Any OnIngest already set in srvOpts runs
// after the replication tap.
func NewNode(root string, srvOpts store.ServerOptions, opts Options) (*Node, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	ring, err := newRing(opts.Peers, opts.VNodes, opts.Replication)
	if err != nil {
		return nil, err
	}
	n := &Node{opts: opts, ring: ring, health: newHealthTable()}
	n.repl = newReplicator(n)
	n.repair = newRepairer(n)
	userTap := srvOpts.OnIngest
	srvOpts.OnIngest = func(docID string, events []egwalker.Event, raw []byte) {
		n.repl.tap(docID, events, raw)
		if userTap != nil {
			userTap(docID, events, raw)
		}
	}
	userQuarantine := srvOpts.OnQuarantine
	srvOpts.OnQuarantine = func(docID string, reason error) {
		n.repair.enqueue(docID)
		if userQuarantine != nil {
			userQuarantine(docID, reason)
		}
	}
	if srvOpts.HandshakeTimeout == 0 {
		srvOpts.HandshakeTimeout = opts.HandshakeTimeout
	}
	srv, err := store.NewServer(root, srvOpts)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	n.repl.start()
	n.repair.start()
	return n, nil
}

// Server exposes the node's underlying store (metrics, local API).
func (n *Node) Server() *store.Server { return n.srv }

// Ring exposes the node's placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// Self returns this node's advertised address.
func (n *Node) Self() string { return n.opts.Self }

// Healthz reports readiness: the node is accepting work and its WAL
// directory is writable.
func (n *Node) Healthz() error { return n.srv.Healthz() }

func (n *Node) logf(format string, args ...any) {
	if n.opts.Logf != nil {
		n.opts.Logf(format, args...)
	}
}

// route picks the serving node for docID: the first replica that is
// not known-failed (Self always counts as live). The returned list is
// the full replica set in preference order — live candidates first —
// for redirect frames and proxy fail-over.
func (n *Node) route(docID string) (owner string, candidates []string) {
	reps := n.ring.Replicas(docID)
	candidates = make([]string, 0, len(reps))
	var failed []string
	for _, a := range reps {
		if a == n.opts.Self || !n.health.failed(a, n.opts.GracePeriod) {
			candidates = append(candidates, a)
		} else {
			failed = append(failed, a)
		}
	}
	candidates = append(candidates, failed...)
	return candidates[0], candidates
}

// ServeConn reads the connection's doc hello and routes it: serve
// locally when this node is the document's serving replica (or the
// connection is a peer's replica link), answer with a redirect frame
// when the client advertises the capability, and proxy byte-for-byte
// otherwise. Returns when the connection is done.
func (n *Node) ServeConn(conn net.Conn) error {
	// A peer that connects and never sends a hello must not pin this
	// goroutine forever; the deadline is cleared once routing is done
	// (the live stream may idle indefinitely).
	if n.opts.HandshakeTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(n.opts.HandshakeTimeout))
	}
	h, err := netsync.ReadHello(conn)
	if err != nil {
		return err
	}
	if n.opts.HandshakeTimeout > 0 {
		conn.SetReadDeadline(time.Time{})
	}
	if h.Replica {
		// A peer replicating to us dialed this node on purpose; no
		// routing decision to make — and a repair fetch or anti-entropy
		// exchange against a quarantined document must still be served
		// (read-only salvage answers are exactly what repair needs).
		return n.srv.ServeHello(conn, h)
	}
	owner, candidates := n.route(h.DocID)
	if owner == n.opts.Self && n.srv.IsQuarantined(h.DocID) && len(candidates) > 1 {
		// This node's copy is damaged: demote ourselves so a healthy
		// replica serves the client while repair runs. With no other
		// candidate we fall through and serve the salvaged prefix
		// read-only — degraded beats unavailable.
		candidates = append(candidates[1:], candidates[0])
		owner = candidates[0]
	}
	if owner == n.opts.Self {
		return n.srv.ServeHello(conn, h)
	}
	if h.Redirect {
		pc := netsync.NewPeerConn(conn)
		n.logf("cluster: redirecting %q for doc %q to %v", remoteAddr(conn), h.DocID, candidates)
		return pc.SendRedirect(candidates)
	}
	return n.proxy(conn, h, candidates)
}

func remoteAddr(conn net.Conn) string {
	if ra := conn.RemoteAddr(); ra != nil {
		return ra.String()
	}
	return "?"
}

// proxy serves a redirect-unaware client for a document this
// node does not own: replay the client's hello verbatim to the owning
// node and pipe bytes both ways. Tries each candidate in order,
// feeding dial outcomes back into the health table; if every remote
// candidate is unreachable and this node holds a replica, it serves
// locally rather than failing the client.
func (n *Node) proxy(conn net.Conn, h netsync.Hello, candidates []string) error {
	var lastErr error
	for _, addr := range candidates {
		if addr == n.opts.Self {
			return n.srv.ServeHello(conn, h)
		}
		remote, err := n.opts.Dial(addr)
		if err != nil {
			n.health.markDown(addr)
			lastErr = err
			continue
		}
		n.health.markUp(addr)
		if err := h.Forward(remote); err != nil {
			remote.Close()
			lastErr = err
			continue
		}
		n.logf("cluster: proxying %q for doc %q to %q", remoteAddr(conn), h.DocID, addr)
		return pipe(conn, remote)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no candidate for doc %q", h.DocID)
	}
	return lastErr
}

// pipe copies both directions until either side ends, then tears both
// down so the other copy unblocks.
func pipe(a, b net.Conn) error {
	errc := make(chan error, 2)
	go func() {
		_, err := io.Copy(a, b)
		errc <- err
	}()
	go func() {
		_, err := io.Copy(b, a)
		errc <- err
	}()
	err := <-errc
	a.Close()
	b.Close()
	<-errc
	return err
}

// Close stops replication links and closes the store. Safe to call
// more than once.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.repair.close()
	n.repl.close()
	return n.srv.Close()
}
