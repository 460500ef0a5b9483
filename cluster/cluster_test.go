package cluster

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"egwalker"
	"egwalker/netsync"
	"egwalker/store"
)

// testNode is one cluster member under test: a real TCP listener, an
// accept loop, and the Node behind it. stop tears both down (the
// "kill" in fail-over tests); restart rebinds the same address over
// the same store root (the crash-restart rejoin).
type testNode struct {
	t           *testing.T
	addr        string
	root        string
	peers       []string
	replication int
	grace       time.Duration
	antiEntropy time.Duration

	// mkSrvOpts, when set, supplies the store.ServerOptions for every
	// (re)start of this node; nil keeps the default fast-flush config.
	mkSrvOpts func() store.ServerOptions

	mu      sync.Mutex
	ln      net.Listener
	node    *Node
	conns   map[net.Conn]bool
	stopped bool
}

func startTestCluster(t *testing.T, n, replication int, grace, antiEntropy time.Duration) []*testNode {
	t.Helper()
	return startTestClusterOpts(t, n, replication, grace, antiEntropy, nil)
}

// startTestClusterOpts is startTestCluster with per-node server
// options (index-keyed), for scenarios that need fault injection or a
// running scrubber.
func startTestClusterOpts(t *testing.T, n, replication int, grace, antiEntropy time.Duration, srvOpts func(i int) store.ServerOptions) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range lns {
		tn := &testNode{
			t:           t,
			addr:        addrs[i],
			root:        t.TempDir(),
			peers:       addrs,
			replication: replication,
			grace:       grace,
			antiEntropy: antiEntropy,
		}
		if srvOpts != nil {
			i := i
			tn.mkSrvOpts = func() store.ServerOptions { return srvOpts(i) }
		}
		tn.start(lns[i])
		nodes[i] = tn
		t.Cleanup(tn.stop)
	}
	return nodes
}

func (tn *testNode) start(ln net.Listener) {
	tn.t.Helper()
	srvOpts := store.ServerOptions{FlushInterval: 5 * time.Millisecond}
	if tn.mkSrvOpts != nil {
		srvOpts = tn.mkSrvOpts()
	}
	node, err := NewNode(tn.root, srvOpts, Options{
		Self:             tn.addr,
		Peers:            tn.peers,
		Replication:      tn.replication,
		GracePeriod:      tn.grace,
		AntiEntropyEvery: tn.antiEntropy,
	})
	if err != nil {
		tn.t.Fatal(err)
	}
	tn.mu.Lock()
	tn.ln, tn.node, tn.stopped = ln, node, false
	tn.conns = make(map[net.Conn]bool)
	tn.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			tn.mu.Lock()
			if tn.stopped {
				tn.mu.Unlock()
				c.Close()
				return
			}
			tn.conns[c] = true
			tn.mu.Unlock()
			go func() {
				node.ServeConn(c)
				c.Close()
				tn.mu.Lock()
				delete(tn.conns, c)
				tn.mu.Unlock()
			}()
		}
	}()
}

func (tn *testNode) stop() {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if tn.stopped {
		return
	}
	tn.stopped = true
	tn.ln.Close()
	// Sever accepted connections too: a real process kill drops every
	// socket, and fail-over detection on the peers depends on it.
	for c := range tn.conns {
		c.Close()
	}
	tn.conns = nil
	node := tn.node
	tn.mu.Unlock()
	node.Close()
	tn.mu.Lock()
}

func (tn *testNode) restart() {
	tn.t.Helper()
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		ln, err = net.Listen("tcp", tn.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			tn.t.Fatalf("rebind %s: %v", tn.addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	tn.start(ln)
}

func byAddr(nodes []*testNode, addr string) *testNode {
	for _, tn := range nodes {
		if tn.addr == addr {
			return tn
		}
	}
	return nil
}

// docState reads a node's fingerprint and event count for docID,
// materializing the document.
func (tn *testNode) docState(docID string) (fp uint64, events int, err error) {
	tn.mu.Lock()
	node := tn.node
	stopped := tn.stopped
	tn.mu.Unlock()
	if stopped {
		return 0, 0, fmt.Errorf("node %s stopped", tn.addr)
	}
	err = node.Server().With(docID, func(ds *store.DocStore) error {
		events = ds.NumEvents()
		var err error
		fp, err = ds.Fingerprint()
		return err
	})
	return fp, events, err
}

// waitConverged polls until every node holds exactly wantEvents events
// of docID with identical fingerprints.
func waitConverged(t *testing.T, nodes []*testNode, docID string, wantEvents int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		fps := make([]uint64, len(nodes))
		counts := make([]int, len(nodes))
		ok := true
		for i, tn := range nodes {
			fp, n, err := tn.docState(docID)
			if err != nil {
				ok = false
				last = fmt.Sprintf("node %s: %v", tn.addr, err)
				break
			}
			fps[i], counts[i] = fp, n
			if n != wantEvents || fps[i] != fps[0] {
				ok = false
				last = fmt.Sprintf("node %s: %d events (want %d), fp %#x (first %#x)",
					tn.addr, n, wantEvents, fp, fps[0])
			}
		}
		if ok {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("cluster did not converge on %q within %v: %s", docID, timeout, last)
}

func TestClusterReplicatesWrites(t *testing.T) {
	nodes := startTestCluster(t, 3, 3, time.Second, 100*time.Millisecond)
	const docID = "alpha"

	d := egwalker.NewDoc("writer")
	if err := d.Insert(0, "hello, replicated world"); err != nil {
		t.Fatal(err)
	}
	primary := byAddr(nodes, nodes[0].node.Ring().Primary(docID))
	if err := primary.node.Server().Append(docID, d.Events()); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, nodes, docID, d.NumEvents(), 10*time.Second)
}

func TestClusterAntiEntropyHealsPartition(t *testing.T) {
	// R=3 over 3 nodes; stop one node entirely, write to a live
	// replica, then restart the stopped node: the periodic exchange
	// must converge it from its journal with no client involved.
	nodes := startTestCluster(t, 3, 3, time.Second, 100*time.Millisecond)
	const docID = "beta"

	d := egwalker.NewDoc("writer")
	if err := d.Insert(0, "first era"); err != nil {
		t.Fatal(err)
	}
	primary := byAddr(nodes, nodes[0].node.Ring().Primary(docID))
	if err := primary.node.Server().Append(docID, d.Events()); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, nodes, docID, d.NumEvents(), 10*time.Second)

	var down *testNode
	for _, tn := range nodes {
		if tn != primary {
			down = tn
			break
		}
	}
	down.stop()

	if err := d.Insert(d.Len(), " second era"); err != nil {
		t.Fatal(err)
	}
	if err := primary.node.Server().Append(docID, d.Events()); err != nil {
		t.Fatal(err)
	}

	down.restart()
	waitConverged(t, nodes, docID, d.NumEvents(), 15*time.Second)
}

func TestRedirectAndLegacyProxy(t *testing.T) {
	// R=1: exactly one owner per document, so any other node must
	// redirect capable clients and proxy legacy ones.
	nodes := startTestCluster(t, 3, 1, time.Minute, 100*time.Millisecond)
	const docID = "gamma"
	const text = "the owner holds this text"

	ownerAddr := nodes[0].node.Ring().Primary(docID)
	owner := byAddr(nodes, ownerAddr)
	var nonOwner *testNode
	for _, tn := range nodes {
		if tn.addr != ownerAddr {
			nonOwner = tn
			break
		}
	}

	seed := egwalker.NewDoc("seeder")
	if err := seed.Insert(0, text); err != nil {
		t.Fatal(err)
	}
	if err := owner.node.Server().Append(docID, seed.Events()); err != nil {
		t.Fatal(err)
	}

	// Redirect-aware client pointed only at a non-owner: first frame
	// must be a redirect naming the owner first; following it must
	// yield the document.
	dialer := &Dialer{Addrs: []string{nonOwner.addr}}
	c, err := dialer.connect(docID, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Peer.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if f.Kind != netsync.FrameRedirect {
		t.Fatalf("non-owner answered frame kind %d, want redirect", f.Kind)
	}
	if len(f.Addrs) == 0 || f.Addrs[0] != ownerAddr {
		t.Fatalf("redirect addrs %v, want owner %q first", f.Addrs, ownerAddr)
	}

	c2, first, err := dialer.ConnectServing(docID, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Addr != ownerAddr {
		t.Fatalf("ConnectServing landed on %q, want owner %q", c2.Addr, ownerAddr)
	}
	got := egwalker.NewDoc("redirected-reader")
	applyFrames(t, got, c2.Peer, first, text)

	// A client without the redirect capability pointed at the same
	// non-owner: the node must proxy it to the owner transparently.
	raw, err := net.Dial("tcp", nonOwner.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	proxied := egwalker.NewDoc("proxied-reader")
	cl, err := netsync.Dial(proxied, raw, docID)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for proxied.Text() != text {
		if time.Now().After(deadline) {
			t.Fatalf("proxied client stuck at %q, want %q", proxied.Text(), text)
		}
		if _, err := cl.Receive(); err != nil {
			t.Fatalf("proxied receive: %v", err)
		}
	}
}

// applyFrames applies the given first frame and then received frames
// into doc until its text equals want.
func applyFrames(t *testing.T, doc *egwalker.Doc, pc *netsync.PeerConn, first netsync.Frame, want string) {
	t.Helper()
	f := first
	deadline := time.Now().Add(10 * time.Second)
	for {
		if f.Kind == netsync.FrameEvents {
			if _, err := doc.Apply(f.Events); err != nil {
				t.Fatal(err)
			}
		}
		if doc.Text() == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader stuck at %q, want %q", doc.Text(), want)
		}
		var err error
		f, err = pc.RecvFrame()
		if err != nil {
			t.Fatalf("reader recv: %v", err)
		}
	}
}

// TestFailoverKillPrimary is the acceptance scenario: a 3-node R=3
// cluster, a client writing through the document's primary, the
// primary killed mid-write. The client must fail over to the next
// replica (via redirects), keep writing, and — after the dead node
// restarts — every node must hold the identical full history: zero
// accepted events lost.
func TestFailoverKillPrimary(t *testing.T) {
	nodes := startTestCluster(t, 3, 3, 300*time.Millisecond, 100*time.Millisecond)
	const docID = "delta"

	writer := egwalker.NewDoc("writer")
	var addrs []string
	for _, tn := range nodes {
		addrs = append(addrs, tn.addr)
	}
	dialer := &Dialer{Addrs: addrs}

	primary := byAddr(nodes, nodes[0].node.Ring().Primary(docID))

	// connect lands on the serving node and re-pushes the writer's
	// full history — the no-acks protocol's loss guarantee: whatever
	// the dead node journaled but never replicated is re-supplied by
	// the client that produced it.
	connect := func() *Conn {
		deadline := time.Now().Add(15 * time.Second)
		for {
			c, _, err := dialer.ConnectServing(docID, writer.Summary())
			if err == nil {
				if err := c.Peer.SendEvents(writer.Events()); err == nil {
					return c
				}
				c.Close()
			}
			if time.Now().After(deadline) {
				t.Fatalf("writer could not reach a serving node: %v", err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	c := connect()
	word := func(i int) string { return fmt.Sprintf("w%03d ", i) }
	push := func(i int) error {
		before := writer.Version()
		if err := writer.Insert(writer.Len(), word(i)); err != nil {
			t.Fatal(err)
		}
		events, err := writer.EventsSince(before)
		if err != nil {
			t.Fatal(err)
		}
		return c.Peer.SendEvents(events)
	}

	const total = 40
	for i := 0; i < total; i++ {
		if i == total/2 {
			// Kill the primary mid-write. The write path must recover
			// via redirect/fail-over to the next replica.
			if c.Addr != primary.addr {
				t.Fatalf("writer connected to %q, expected primary %q", c.Addr, primary.addr)
			}
			primary.stop()
		}
		if err := push(i); err != nil {
			// The word is already in the writer's local history;
			// reconnecting re-pushes the full history, so nothing is
			// inserted or sent twice.
			c.Close()
			c = connect()
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c.Addr == primary.addr {
		t.Fatalf("writer still pointed at dead primary %q", primary.addr)
	}
	c.Close()

	var wantText strings.Builder
	for i := 0; i < total; i++ {
		wantText.WriteString(word(i))
	}

	// The dead node rejoins; anti-entropy must converge it from its
	// journal. Every node ends with the writer's complete history.
	primary.restart()
	waitConverged(t, nodes, docID, writer.NumEvents(), 20*time.Second)

	for _, tn := range nodes {
		text, err := tn.node.Server().Text(docID)
		if err != nil {
			t.Fatal(err)
		}
		if text != wantText.String() {
			t.Fatalf("node %s text %q, want %q", tn.addr, text, wantText.String())
		}
	}

	// A redirected reader completes a fresh session against the
	// healed cluster.
	reader := egwalker.NewDoc("reader")
	rc, first, err := dialer.ConnectServing(docID, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	applyFrames(t, reader, rc.Peer, first, wantText.String())
}
