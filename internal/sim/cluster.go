package sim

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"egwalker"
	"egwalker/cluster"
	"egwalker/netsync"
	"egwalker/store"
)

// This file is the multi-node cluster scenario: real cluster.Nodes on
// loopback TCP, scripted clients writing through the routing layer,
// and fault injection (peer-link partitions, node crash-restarts) with
// the convergence oracle closing the loop. Unlike the tick-based
// single-process simulation in sim.go, these scenarios run on real
// sockets and goroutines — timing is not deterministic — but the
// oracle contract is the same: after faults heal and traffic drains,
// every node and every client must hold the identical event graph,
// with no accepted event lost.

// ClusterConfig describes one cluster scenario.
type ClusterConfig struct {
	// Nodes is the cluster size (default 3); Replication the per-doc
	// replica-set size (default Nodes).
	Nodes       int
	Replication int
	// Clients is how many concurrent scripted writers edit the single
	// shared document (default 3).
	Clients int
	// Rounds is how many edit bursts each client pushes (default 25).
	Rounds int
	// Seed drives the edit scripts (content determinism; network
	// timing is real).
	Seed int64
	// Script configures the edit generator.
	Script ScriptConfig
	// Partition, when set, cuts the peer links between the first two
	// nodes mid-run and heals them before the drain.
	Partition bool
	// CrashRestart, when set, kills one non-primary node mid-run
	// (listener, live connections, store) and restarts it from its
	// journal before the drain.
	CrashRestart bool
	// Dir is the scratch directory for node stores. Empty means a
	// fresh temp directory, removed when the run ends.
	Dir string
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Replication <= 0 {
		c.Replication = c.Nodes
	}
	if c.Clients <= 0 {
		c.Clients = 3
	}
	if c.Rounds <= 0 {
		c.Rounds = 25
	}
	c.Script = c.Script.withDefaults()
	return c
}

// ClusterResult summarizes a completed cluster scenario.
type ClusterResult struct {
	Nodes        int
	Clients      int
	Events       int // distinct events in the converged history
	Reconnects   int // client reconnects forced by faults
	ConvergeTime time.Duration
}

// partitionTable blocks dials between node pairs and severs the live
// connections a blocked pair already holds. Node-to-node dials route
// through it; client traffic does not.
type partitionTable struct {
	mu      sync.Mutex
	blocked map[[2]string]bool
	conns   map[[2]string][]net.Conn
}

func newPartitionTable() *partitionTable {
	return &partitionTable{
		blocked: make(map[[2]string]bool),
		conns:   make(map[[2]string][]net.Conn),
	}
}

func (p *partitionTable) dial(from string) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		p.mu.Lock()
		cut := p.blocked[[2]string{from, addr}]
		p.mu.Unlock()
		if cut {
			return nil, fmt.Errorf("sim: partition %s -/- %s", from, addr)
		}
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.conns[[2]string{from, addr}] = append(p.conns[[2]string{from, addr}], c)
		p.mu.Unlock()
		return c, nil
	}
}

// cut blocks both directions between a and b and closes their live
// connections, so the partition takes effect immediately rather than
// at the next dial.
func (p *partitionTable) cut(a, b string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked[[2]string{a, b}] = true
	p.blocked[[2]string{b, a}] = true
	for _, pair := range [][2]string{{a, b}, {b, a}} {
		for _, c := range p.conns[pair] {
			c.Close()
		}
		delete(p.conns, pair)
	}
}

func (p *partitionTable) heal(a, b string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.blocked, [2]string{a, b})
	delete(p.blocked, [2]string{b, a})
}

// simNode is one cluster member of a scenario: node, listener, and the
// accepted connections a kill must sever (a crashed process drops its
// sockets; fail-over detection on the peers depends on that).
type simNode struct {
	addr  string
	root  string
	peers []string
	cfg   ClusterConfig
	part  *partitionTable

	mu    sync.Mutex
	ln    net.Listener
	node  *cluster.Node
	conns map[net.Conn]bool
	up    bool
}

func (sn *simNode) start(ln net.Listener) error {
	var logf func(string, ...any)
	if os.Getenv("EGSIM_CLUSTER_DEBUG") != "" {
		logf = log.Printf
	}
	node, err := cluster.NewNode(sn.root, store.ServerOptions{FlushInterval: 5 * time.Millisecond}, cluster.Options{
		Self:             sn.addr,
		Peers:            sn.peers,
		Replication:      sn.cfg.Replication,
		GracePeriod:      250 * time.Millisecond,
		AntiEntropyEvery: 100 * time.Millisecond,
		Dial:             sn.part.dial(sn.addr),
		Logf:             logf,
	})
	if err != nil {
		return err
	}
	sn.mu.Lock()
	sn.ln, sn.node, sn.up = ln, node, true
	sn.conns = make(map[net.Conn]bool)
	sn.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			sn.mu.Lock()
			if !sn.up {
				sn.mu.Unlock()
				c.Close()
				return
			}
			sn.conns[c] = true
			sn.mu.Unlock()
			go func() {
				node.ServeConn(c)
				c.Close()
				sn.mu.Lock()
				delete(sn.conns, c)
				sn.mu.Unlock()
			}()
		}
	}()
	return nil
}

func (sn *simNode) kill() {
	sn.mu.Lock()
	if !sn.up {
		sn.mu.Unlock()
		return
	}
	sn.up = false
	sn.ln.Close()
	for c := range sn.conns {
		c.Close()
	}
	sn.conns = nil
	node := sn.node
	sn.mu.Unlock()
	node.Close()
}

func (sn *simNode) restart() error {
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		ln, err = net.Listen("tcp", sn.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sim: rebind %s: %w", sn.addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return sn.start(ln)
}

func (sn *simNode) docState(docID string) (fp uint64, events int, err error) {
	sn.mu.Lock()
	node := sn.node
	up := sn.up
	sn.mu.Unlock()
	if !up {
		return 0, 0, fmt.Errorf("sim: node %s down", sn.addr)
	}
	err = node.Server().With(docID, func(ds *store.DocStore) error {
		events = ds.NumEvents()
		var err error
		fp, err = ds.Fingerprint()
		return err
	})
	return fp, events, err
}

// clusterClient is one scripted writer: a local replica doc, a
// redirect-following connection, and the reconnect discipline that
// guarantees no accepted event is lost — on every (re)connect it
// re-pushes its full local history, so anything a dead node journaled
// but never replicated is re-supplied by the client that produced it.
type clusterClient struct {
	id     int
	docID  string
	dialer *cluster.Dialer
	script *script

	mu  sync.Mutex
	doc *egwalker.Doc
	// readers counts the goroutines applying what this client's
	// connections receive: the oracle reads doc only once they are done.
	readers sync.WaitGroup

	reconnects int
}

func (cc *clusterClient) connect() (*cluster.Conn, error) {
	cc.mu.Lock()
	summary := cc.doc.Summary()
	history := cc.doc.Events()
	cc.mu.Unlock()
	conn, first, err := cc.dialer.ConnectServing(cc.docID, summary)
	if err != nil {
		return nil, err
	}
	if first.Kind == netsync.FrameEvents && len(first.Events) > 0 {
		cc.mu.Lock()
		_, err = cc.doc.Apply(first.Events)
		cc.mu.Unlock()
		if err != nil {
			conn.Close()
			return nil, err
		}
	}
	if err := conn.Peer.SendEvents(history); err != nil {
		conn.Close()
		return nil, err
	}
	// Reader: apply whatever the cluster fans out for as long as this
	// connection lives.
	cc.readers.Add(1)
	go func() {
		defer cc.readers.Done()
		for {
			f, err := conn.Peer.RecvFrame()
			if err != nil {
				return
			}
			if f.Kind != netsync.FrameEvents {
				continue
			}
			cc.mu.Lock()
			cc.doc.Apply(f.Events)
			cc.mu.Unlock()
		}
	}()
	return conn, nil
}

func (cc *clusterClient) run(rounds int) error {
	conn, err := cc.connectRetry()
	if err != nil {
		return err
	}
	defer func() { conn.Close() }()
	for round := 0; round < rounds; round++ {
		cc.mu.Lock()
		before := cc.doc.Version()
		burst := cc.script.burstSize()
		for i := 0; i < burst; i++ {
			if _, err := cc.script.apply(cc.doc); err != nil {
				cc.mu.Unlock()
				return err
			}
		}
		events, err := cc.doc.EventsSince(before)
		cc.mu.Unlock()
		if err != nil {
			return err
		}
		if err := conn.Peer.SendEvents(events); err != nil {
			// Fault in flight: reconnect (full-history re-push covers
			// this round's events too).
			conn.Close()
			cc.reconnects++
			conn, err = cc.connectRetry()
			if err != nil {
				return err
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (cc *clusterClient) connectRetry() (*cluster.Conn, error) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := cc.connect()
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("sim: client %d cannot reach cluster: %w", cc.id, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// waitFingerprint polls until the client's replica fingerprint matches
// the cluster's converged fingerprint (an open connection's reader is
// expected to be applying the fan-out meanwhile).
func (cc *clusterClient) waitFingerprint(fp uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		cc.mu.Lock()
		got := cc.doc.Fingerprint()
		cc.mu.Unlock()
		if got == fp {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sim: client %d did not converge to %#x (have %#x)", cc.id, fp, got)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// RunCluster executes one cluster scenario and checks the oracle.
func RunCluster(cfg ClusterConfig) (ClusterResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "egsim-cluster-")
		if err != nil {
			return ClusterResult{}, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}

	part := newPartitionTable()
	lns := make([]net.Listener, cfg.Nodes)
	addrs := make([]string, cfg.Nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return ClusterResult{}, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*simNode, cfg.Nodes)
	for i := range lns {
		nodes[i] = &simNode{
			addr:  addrs[i],
			root:  fmt.Sprintf("%s/node%d", cfg.Dir, i),
			peers: addrs,
			cfg:   cfg,
			part:  part,
		}
		if err := nodes[i].start(lns[i]); err != nil {
			return ClusterResult{}, err
		}
		defer nodes[i].kill()
	}

	const docID = "sim-cluster-doc"
	rng := rand.New(rand.NewSource(cfg.Seed))
	clients := make([]*clusterClient, cfg.Clients)
	for i := range clients {
		clients[i] = &clusterClient{
			id:     i,
			docID:  docID,
			dialer: &cluster.Dialer{Addrs: addrs},
			script: newScript(cfg.Script, rand.New(rand.NewSource(rng.Int63()))),
			doc:    egwalker.NewDoc(fmt.Sprintf("client%d", i)),
		}
	}

	errs := make(chan error, cfg.Clients)
	var wg sync.WaitGroup
	for _, cc := range clients {
		wg.Add(1)
		go func(cc *clusterClient) {
			defer wg.Done()
			errs <- cc.run(cfg.Rounds)
		}(cc)
	}

	// Fault injection at roughly mid-run.
	time.Sleep(time.Duration(cfg.Rounds) * 2 * time.Millisecond / 2)
	primary := nodes[0].node.Ring().Primary(docID)
	if cfg.Partition {
		part.cut(addrs[0], addrs[1])
	}
	var crashed *simNode
	if cfg.CrashRestart {
		// Kill a non-primary replica so the write path and the rejoin
		// path are exercised at the same time.
		for _, sn := range nodes {
			if sn.addr != primary {
				crashed = sn
				break
			}
		}
		crashed.kill()
	}
	time.Sleep(200 * time.Millisecond)

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return ClusterResult{}, err
		}
	}

	// Heal everything, then time the drain to node convergence.
	healStart := time.Now()
	if cfg.Partition {
		part.heal(addrs[0], addrs[1])
	}
	if crashed != nil {
		if err := crashed.restart(); err != nil {
			return ClusterResult{}, err
		}
	}

	// No accepted event lost: the reference is the union of every
	// client's local history — exactly the set of events clients
	// generated and pushed.
	ref := egwalker.NewDoc("reference")
	for _, cc := range clients {
		cc.mu.Lock()
		events := cc.doc.Events()
		cc.mu.Unlock()
		if _, err := ref.Apply(events); err != nil {
			return ClusterResult{}, err
		}
	}
	wantFP := ref.Fingerprint()
	wantEvents := ref.NumEvents()

	// Final resync, before the convergence check: every client
	// reconnects, and reconnecting re-pushes the client's full local
	// history. That re-push is the delivery guarantee made concrete —
	// a batch written into a connection that died before the server
	// read it was never accepted by anyone, and only the client that
	// authored it can re-supply it. The connections then stay open so
	// the fan-out brings each client the rest of the union.
	resync := make([]*cluster.Conn, 0, len(clients))
	defer func() {
		for _, conn := range resync {
			conn.Close()
		}
	}()
	for i, cc := range clients {
		conn, err := cc.connectRetry()
		if err != nil {
			return ClusterResult{}, fmt.Errorf("sim: client %d resync: %w", i, err)
		}
		resync = append(resync, conn)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		converged := true
		var detail []string
		for _, sn := range nodes {
			fp, n, err := sn.docState(docID)
			if err != nil {
				converged = false
				detail = append(detail, fmt.Sprintf("node %s: %v", sn.addr, err))
				continue
			}
			if fp != wantFP || n != wantEvents {
				converged = false
			}
			detail = append(detail, fmt.Sprintf("node %s: %d events fp %#x", sn.addr, n, fp))
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			for _, sn := range nodes {
				sn.mu.Lock()
				if sn.up {
					m := sn.node.Server().MetricsSnapshot()
					detail = append(detail, fmt.Sprintf("node %s metrics: batches=%d severed=%d replicaIn=%d exchanges=%d",
						sn.addr, m.BatchesApplied, m.PeersSevered, m.ReplicaBatchesIn, m.ReplicaExchanges))
				}
				sn.mu.Unlock()
			}
			return ClusterResult{}, fmt.Errorf("sim: cluster did not converge to %d events fp %#x: %s",
				wantEvents, wantFP, strings.Join(detail, "; "))
		}
		time.Sleep(50 * time.Millisecond)
	}
	convergeTime := time.Since(healStart)

	// Clients converge to the same history, then the full oracle runs
	// across every client replica plus the reference.
	reconnects := 0
	for _, cc := range clients {
		if err := cc.waitFingerprint(wantFP, 20*time.Second); err != nil {
			return ClusterResult{}, err
		}
		reconnects += cc.reconnects
	}
	// The oracle reads the replicas unlocked: first close the connections
	// and wait until no reader is still applying a frame.
	for _, conn := range resync {
		conn.Close()
	}
	resync = resync[:0]
	for _, cc := range clients {
		cc.readers.Wait()
	}
	docs := []*egwalker.Doc{ref}
	for _, cc := range clients {
		docs = append(docs, cc.doc)
	}
	if err := CheckAll(docs); err != nil {
		return ClusterResult{}, err
	}

	return ClusterResult{
		Nodes:        cfg.Nodes,
		Clients:      cfg.Clients,
		Events:       wantEvents,
		Reconnects:   reconnects,
		ConvergeTime: convergeTime,
	}, nil
}
