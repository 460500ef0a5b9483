package cluster

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"egwalker"
	"egwalker/netsync"
	"egwalker/store"
)

// replicator owns this node's outbound replica links: one persistent
// connection per (document, peer) pair, created lazily the first time
// the pair matters and kept dialing until the node closes.
//
// Two things feed a link. The hot path is the origin push: the store's
// OnIngest tap hands every batch this node accepted from a client to
// the links of the document's other replicas, so replicas see new data
// one hop after the origin does. The safety net is anti-entropy: each
// link periodically sends its version on the live stream; the remote
// answers with its own version plus the events the sender lacks, and
// the sender pushes back the remote's gap — netsync's resume exchange,
// embedded in a persistent stream, so a rejoining or lagging replica
// converges from its journal without a full retransfer.
//
// The tap never blocks (it runs under the document's fan-out lock): a
// full outbox drops the push and flags the link, and the next exchange
// heals the gap.
type replicator struct {
	n *Node

	mu     sync.Mutex
	links  map[linkKey]*link
	closed bool

	done chan struct{}
	wg   sync.WaitGroup
}

type linkKey struct {
	docID string
	addr  string
}

type pushBatch struct {
	events []egwalker.Event
	raw    []byte // origin client's encoded batch, forwarded verbatim when set
}

func newReplicator(n *Node) *replicator {
	return &replicator{
		n:     n,
		links: make(map[linkKey]*link),
		done:  make(chan struct{}),
	}
}

// start launches the mesh loop. Called once the node's server is in
// place — the loop reads it.
func (r *replicator) start() {
	r.wg.Add(1)
	go r.meshLoop()
}

// tap receives every batch the local store accepted from a client or
// the API (never from a replica link). Called with the document's
// fan-out lock held: enqueue and return.
func (r *replicator) tap(docID string, events []egwalker.Event, raw []byte) {
	for _, addr := range r.n.ring.Replicas(docID) {
		if addr == r.n.opts.Self {
			continue
		}
		l := r.link(docID, addr)
		if l == nil {
			return // replicator closed
		}
		select {
		case l.ch <- pushBatch{events: events, raw: raw}:
		default:
			// Outbox full — drop the push and let the next exchange
			// carry the gap.
			l.kickExchange()
		}
	}
}

// link returns the (docID, addr) link, creating and starting it if
// needed. Returns nil once the replicator is closed.
func (r *replicator) link(docID, addr string) *link {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	k := linkKey{docID, addr}
	if l, ok := r.links[k]; ok {
		return l
	}
	l := &link{
		n:     r.n,
		docID: docID,
		addr:  addr,
		ch:    make(chan pushBatch, 256),
		kick:  make(chan struct{}, 1),
	}
	r.links[k] = l
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		l.run(r.done)
	}()
	return l
}

// meshLoop ensures every document this node hosts has links to the
// rest of its replica set, even when this node never accepted a write
// for it — without this, a document whose origin node died would have
// no one running anti-entropy for it. Runs once at start (so a
// restarted node immediately reconciles its journal with its peers)
// and then once per anti-entropy period. Each tick also prunes the
// health table to the current membership, so addresses that left the
// ring do not accumulate forever.
func (r *replicator) meshLoop() {
	defer r.wg.Done()
	// One reused timer for the whole loop: a per-iteration time.After
	// leaks a live timer per tick until it fires, which adds up at
	// short anti-entropy intervals.
	t := time.NewTimer(r.n.opts.AntiEntropyEvery)
	defer t.Stop()
	for {
		r.ensureMesh()
		r.n.health.prune(r.n.ring.Nodes())
		// Re-enqueue anything still quarantined: a repair attempt that
		// failed (replicas down, fetch cut short) retries once per
		// tick instead of staying stuck.
		for _, id := range r.n.srv.QuarantinedDocIDs() {
			r.n.repair.enqueue(id)
		}
		select {
		case <-r.done:
			return
		case <-t.C:
			t.Reset(r.n.opts.AntiEntropyEvery)
		}
	}
}

func (r *replicator) ensureMesh() {
	ids, err := r.n.srv.DocIDs()
	if err != nil {
		r.n.logf("cluster: list docs for replication mesh: %v", err)
		return
	}
	for _, id := range ids {
		reps := r.n.ring.Replicas(id)
		mine := false
		for _, a := range reps {
			if a == r.n.opts.Self {
				mine = true
			}
		}
		if !mine {
			continue
		}
		for _, a := range reps {
			if a != r.n.opts.Self {
				if r.link(id, a) == nil {
					return
				}
			}
		}
	}
}

func (r *replicator) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.done)
	r.wg.Wait()
}

// link is one persistent replica connection for one document to one
// peer. run dials forever (with backoff) until the replicator closes;
// each successful dial becomes a session.
type link struct {
	n     *Node
	docID string
	addr  string
	ch    chan pushBatch
	kick  chan struct{} // coalesced "run an exchange now" signal
	dirty atomic.Bool
}

func (l *link) kickExchange() {
	l.dirty.Store(true)
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

func (l *link) summary() (egwalker.VersionSummary, error) {
	var s egwalker.VersionSummary
	err := l.n.srv.With(l.docID, func(ds *store.DocStore) error {
		var err error
		s, err = ds.Summary()
		return err
	})
	return s, err
}

func (l *link) diffSummary(theirs egwalker.VersionSummary) ([]egwalker.Event, error) {
	var events []egwalker.Event
	err := l.n.srv.With(l.docID, func(ds *store.DocStore) error {
		var err error
		events, err = ds.EventsSinceSummary(theirs)
		return err
	})
	return events, err
}

func (l *link) run(done <-chan struct{}) {
	backoff := 100 * time.Millisecond
	const maxBackoff = 2 * time.Second
	// One reused timer for every backoff sleep: per-iteration
	// time.After leaks a live timer per failed dial until it fires —
	// real memory with many links dialing a dead peer on a short
	// interval. sleep returns false when the replicator closed.
	retry := time.NewTimer(time.Hour)
	defer retry.Stop()
	sleep := func(d time.Duration) bool {
		if !retry.Stop() {
			select {
			case <-retry.C:
			default:
			}
		}
		retry.Reset(d)
		select {
		case <-done:
			return false
		case <-retry.C:
			return true
		}
	}
	for {
		select {
		case <-done:
			return
		default:
		}
		conn, err := l.n.opts.Dial(l.addr)
		if err != nil {
			l.n.health.markDown(l.addr)
			if !sleep(backoff) {
				return
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		l.n.health.markUp(l.addr)
		backoff = 100 * time.Millisecond
		if err := l.session(conn, done); err != nil {
			l.n.logf("cluster: replica link %s -> %s doc %q: %v", l.n.opts.Self, l.addr, l.docID, err)
			l.n.health.markDown(l.addr)
		}
		conn.Close()
		if !sleep(backoff) {
			return
		}
	}
}

// session drives one live connection: hello with our run-length
// version summary (the remote answers with its own summary plus our
// exact gap), then pushes, periodic exchanges, and a reader ingesting
// whatever the remote sends. The exchange ships only the true gap,
// even between a healed node and a peer that advanced without it, and
// between converged replicas a journal-only document answers without
// even materializing.
func (l *link) session(conn net.Conn, done <-chan struct{}) error {
	pc := netsync.NewPeerConn(conn)
	s, err := l.summary()
	if err != nil {
		return err
	}
	// Handshake under a deadline: the hello write and the remote's
	// first answer are both bounded, so a peer that accepted the dial
	// but stalled (wedged process, black-holed route) fails fast into
	// the redial loop instead of pinning this link forever. readLoop
	// clears the read deadline once the first frame lands — after
	// that, idling is legitimate.
	hs := l.n.opts.HandshakeTimeout
	if hs > 0 {
		conn.SetDeadline(time.Now().Add(hs))
	}
	err = pc.SendHello(netsync.Hello{
		DocID:   l.docID,
		Summary: s,
		Compact: true,
		Replica: true,
	})
	if err != nil {
		return err
	}
	if hs > 0 {
		conn.SetWriteDeadline(time.Time{})
	}
	readErr := make(chan error, 1)
	go func() { readErr <- l.readLoop(pc, conn, hs > 0) }()
	fail := func(err error) error {
		conn.Close()
		<-readErr
		return err
	}
	exchange := func() error {
		l.dirty.Store(false)
		s, err := l.summary()
		if err != nil {
			return err
		}
		return pc.SendSummary(s)
	}
	ticker := time.NewTicker(l.n.opts.AntiEntropyEvery)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			pc.SendDone()
			conn.Close()
			<-readErr
			return nil
		case err := <-readErr:
			return err
		case b := <-l.ch:
			if b.raw != nil {
				err = pc.SendRaw(b.raw)
			} else {
				err = pc.SendEvents(b.events)
			}
			if err != nil {
				return fail(err)
			}
		case <-l.kick:
			if err := exchange(); err != nil {
				return fail(err)
			}
		case <-ticker.C:
			if err := exchange(); err != nil {
				return fail(err)
			}
		}
	}
}

// readLoop ingests what the remote sends: summary frames (its side of
// an exchange — answer by pushing its exact gap) and event batches (our
// gap, journaled as replica data so it is never re-forwarded).
func (l *link) readLoop(pc *netsync.PeerConn, conn net.Conn, armed bool) error {
	for {
		f, err := pc.RecvFrame()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if armed {
			// Handshake complete: lift the session's read deadline so
			// the persistent stream may idle between pushes.
			conn.SetReadDeadline(time.Time{})
			armed = false
		}
		switch f.Kind {
		case netsync.FrameSummary:
			diff, err := l.diffSummary(f.Summary)
			if err != nil {
				return err
			}
			if len(diff) > 0 {
				if err := pc.SendEvents(diff); err != nil {
					return err
				}
			}
		case netsync.FrameEvents:
			if err := l.n.srv.IngestReplica(l.docID, f.Events, f.Raw); err != nil {
				return err
			}
		case netsync.FrameDone:
			return nil
		default:
			return fmt.Errorf("cluster: unexpected frame kind %d on replica link", f.Kind)
		}
	}
}
