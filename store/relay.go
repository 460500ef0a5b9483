package store

import (
	"fmt"
	"io"
	"time"

	"egwalker"
	"egwalker/netsync"
)

// peerSub is one live subscriber of a document: its byte-budgeted
// outbox of marshalled batches and the connection behind it (kept so
// the sever path can close the transport immediately — a writer blocked
// mid-send on a stalled peer would otherwise never observe its outbox
// closing).
type peerSub struct {
	ob   *outbox
	conn io.ReadWriter
}

// ingest journals a batch and forwards it to every peer except the
// sender, unless it added no event and parked none: then every peer has
// it. The batch travels encoded: its events are decoded, once, only if
// the document is materialized or the replication tap is set (b.raw is
// nil for API appends, which arrive decoded). replica marks a batch from
// a server-to-server replication link: it fans out to local subscribers
// but never fires the OnIngest tap, since the origin pushed it to every
// replica and re-forwarding would echo it around the cluster forever.
func (e *entry) ingest(b *batch, fromPeer int, replica bool) error {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	fresh, parked, err := e.ds.ingestBatch(b)
	if err != nil {
		return err
	}
	if fresh > 0 && !replica && e.srv.opts.OnIngest != nil {
		events, err := b.Events()
		if err != nil {
			return err
		}
		e.srv.opts.OnIngest(e.id, events, b.raw)
	}
	// ApplyNs from call entry, so per-document lock contention (many
	// writers on one hot document) shows up in the latency it causes.
	e.srv.metrics.ApplyNs.Observe(time.Since(start).Nanoseconds())
	e.srv.metrics.EventsApplied.Add(int64(b.n))
	e.srv.metrics.BatchesApplied.Inc()
	e.srv.metrics.FanoutBatchEvents.Observe(int64(b.n))
	if replica {
		e.srv.metrics.ReplicaBatchesIn.Inc()
		e.srv.metrics.ReplicaEventsIn.Add(int64(b.n))
	}
	if fresh == 0 && !parked {
		return nil
	}
	return e.fanoutLocked(b, fromPeer)
}

// fanoutLocked forwards a batch to every subscriber except fromPeer (-1:
// all), with e.mu held; RepairDoc pushes a repair's diff through it too.
// An upload goes verbatim (every subscriber decodes both encodings); a
// batch that arrived decoded is marshalled once, by MarshalBatches.
func (e *entry) fanoutLocked(b *batch, fromPeer int) error {
	raws := [][]byte{b.raw}
	if b.raw == nil {
		events, err := b.Events()
		if err != nil {
			return err
		}
		if raws, err = egwalker.MarshalBatches(events); err != nil {
			return err
		}
	}
	for pid, p := range e.peers {
		if pid == fromPeer {
			continue
		}
		depth, ok := p.ob.push(raws)
		e.srv.metrics.OutboxDepth.Observe(int64(depth))
		if !ok {
			// Slow peer: over its byte budget even after coalescing, so
			// it would silently miss these events forever (the live
			// protocol has no anti-entropy). Sever it instead; the
			// client reconnects with a summary hello and catches up
			// incrementally.
			e.severLocked(pid)
		}
	}
	return nil
}

// severLocked disconnects one subscriber: removes it from the peer
// map, drops its queued outbox (waking and ending its writer), and
// closes the transport so a writer stalled mid-send and the peer's
// reader both unblock. Called with e.mu held. Guarded on map
// membership so racing sever paths (fan-out overflow vs. a connection
// close already in flight) account the peer exactly once.
func (e *entry) severLocked(pid int) {
	p, ok := e.peers[pid]
	if !ok {
		return
	}
	delete(e.peers, pid)
	p.ob.close(true)
	severConn(p.conn)
	e.srv.metrics.PeersSevered.Inc()
	e.srv.metrics.Subscribers.Add(-1)
}

// subPlan is what subscribe hands ServeConn: the peer's registration
// plus its catch-up, which is either a block cut (stream encoded
// frames verbatim off disk — the zero-materialization path) or a
// decoded event batch.
type subPlan struct {
	id     int
	outbox *outbox
	cut    *BlockCut
	events []egwalker.Event
}

// subscribe registers a peer and plans its catch-up: nothing ingested
// after the cut escapes the outbox, so the peer sees every event
// exactly once. A hello with a non-empty summary gets the exact diff —
// correct even when this server lacks some of the peer's events, so it
// never resends history; a diff that cannot be built degrades to a
// full catch-up, counted as a resume fallback. A full catch-up streams
// the document's encoded blocks without materializing it where the
// store can cut them, and sends the decoded history otherwise.
func (e *entry) subscribe(conn io.ReadWriter, h netsync.Hello) (*subPlan, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextPeer
	e.nextPeer++
	outbox := newOutbox(e.srv.opts.OutboxBytesPerPeer, e.srv.opts.OutboxBytesTotal, &e.srv.metrics.OutboxBytes, &e.srv.metrics.CoalescedFrames)
	if e.peers == nil {
		e.peers = make(map[int]peerSub)
	}
	e.peers[id] = peerSub{ob: outbox, conn: conn}
	e.srv.metrics.Subscribers.Add(1)
	if len(h.Summary) > 0 {
		catchup, err := e.ds.EventsSinceSummary(h.Summary)
		if err == nil {
			e.srv.metrics.SummaryResumes.Inc()
			e.srv.metrics.Resumes.Inc()
			e.srv.metrics.ResumeEvents.Add(int64(len(catchup)))
			return &subPlan{id: id, outbox: outbox, events: catchup}, nil
		}
		// A full catch-up is always correct — but say so, because a
		// fleet of clients silently re-downloading full histories is a
		// resume regression an operator needs to see.
		e.srv.metrics.ResumeFallbacks.Inc()
		e.srv.logf("store: summary resume for %q degraded to full catch-up: %v", e.id, err)
	}
	if cut, ok := e.ds.CutForServe(); ok {
		e.srv.metrics.BlockServes.Inc()
		e.srv.metrics.BlockServeEvents.Add(int64(cut.events))
		return &subPlan{id: id, outbox: outbox, cut: cut}, nil
	}
	snapshot, err := e.ds.EventsSince(nil)
	if err != nil {
		// No catch-up can be built (materialization failed); undo the
		// registration — this connection is unusable.
		delete(e.peers, id)
		outbox.close(true)
		e.srv.metrics.Subscribers.Add(-1)
		return nil, err
	}
	e.srv.metrics.FullSnapshots.Inc()
	e.srv.metrics.SnapshotEvents.Add(int64(len(snapshot)))
	return &subPlan{id: id, outbox: outbox, events: snapshot}, nil
}

// severConn force-closes a peer connection when the transport supports
// it, unblocking any read pending on it.
func severConn(conn io.ReadWriter) {
	if c, ok := conn.(io.Closer); ok {
		c.Close()
	}
}

func (e *entry) unsubscribe(id int) {
	e.mu.Lock()
	p, ok := e.peers[id]
	delete(e.peers, id)
	if ok {
		e.srv.metrics.Subscribers.Add(-1)
	}
	e.mu.Unlock()
	if ok {
		// Graceful close: the writer drains what is already queued
		// before exiting. A peer severed earlier is gone from the map,
		// so this path cannot double-account it.
		p.ob.close(false)
	}
}

// ServeConn handles one client connection: it reads the doc hello
// naming which hosted document the peer wants, sends the catch-up
// (everything, or — when the hello carries a version
// summary — only the events the peer is missing), and thereafter
// journals and fans out every batch the peer uploads — netsync.Relay
// semantics, multiplexed over every document in the store and durable
// across restarts. A hello of a retired generation is refused before
// anything is written back.
//
// A cold join is streamed as the document's encoded blocks (snapshot
// frame + WAL blocks) verbatim off disk, without materializing the
// document at all. Run ServeConn in its own goroutine per connection;
// it returns when the peer disconnects.
func (s *Server) ServeConn(conn io.ReadWriter) error {
	// A peer that connects and never speaks must not pin this goroutine
	// forever: the hello read gets a deadline when the transport has
	// one, cleared once the handshake completes (the live stream is
	// allowed to idle indefinitely).
	d, hasDeadline := conn.(readDeadliner)
	if hasDeadline && s.opts.HandshakeTimeout > 0 {
		d.SetReadDeadline(time.Now().Add(s.opts.HandshakeTimeout))
	}
	h, err := netsync.ReadHello(conn)
	if err != nil {
		return err
	}
	if hasDeadline && s.opts.HandshakeTimeout > 0 {
		d.SetReadDeadline(time.Time{})
	}
	return s.ServeHello(conn, h)
}

// readDeadliner is the slice of net.Conn the handshake timeout needs.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// ServeHello is ServeConn after the doc hello has already been read —
// the entry point for routers (cluster nodes) that parse the hello
// themselves to decide whether this server owns the document before
// handing the connection over. A hello flagged as a replica link gets
// the server-to-server treatment: a version exchange instead of a
// fan-out subscription (see serveReplica).
func (s *Server) ServeHello(conn io.ReadWriter, h netsync.Hello) error {
	s.metrics.ConnCount.Add(1)
	defer s.metrics.ConnCount.Add(-1)
	if h.Replica {
		return s.serveReplica(conn, h)
	}
	pc := netsync.NewPeerConn(conn)
	e, err := s.acquire(h.DocID)
	if err != nil {
		return err
	}
	defer s.release(e)

	plan, err := e.subscribe(conn, h)
	if err != nil {
		return err
	}
	defer e.unsubscribe(plan.id)

	if plan.cut != nil {
		err = e.streamCatchup(pc, plan.cut)
	} else {
		err = pc.SendEvents(plan.events)
	}
	if err != nil {
		return err
	}

	writeErr := make(chan error, 1)
	go func() {
		var raws [][]byte
		for {
			var ok bool
			if raws, ok = plan.outbox.drain(raws); !ok {
				// Outbox closed and empty: normal teardown, or the peer
				// was dropped as too slow (ingest). Sever the connection
				// so a Recv blocked on an idle diverged client unblocks
				// and the client reconnects for a fresh snapshot.
				writeErr <- nil
				severConn(conn)
				return
			}
			// Everything queued ships as one writev-style burst: the
			// frames hit the wire under a single flush instead of one
			// syscall each — the difference between 10k writers making
			// progress and 10k writers thrashing the scheduler.
			if err := pc.SendRawBatch(raws); err != nil {
				writeErr <- err
				// Frames queued after this point can never be sent;
				// drop them so the global byte ledger is released now,
				// not when unsubscribe eventually runs.
				plan.outbox.close(true)
				severConn(conn)
				return
			}
		}
	}()

	for {
		select {
		case err := <-writeErr:
			return err
		default:
		}
		// Uploads stay encoded: the payload is validated where it is
		// admitted (DocStore.ingestBatch) and decoded only if something
		// on the way needs its events.
		f, err := pc.RecvFrameRaw()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch f.Kind {
		case netsync.FrameEvents:
			if err := e.ingest(&batch{raw: f.Raw}, plan.id, false); err != nil {
				return err
			}
		case netsync.FrameDone:
			return nil
		default:
			// (e.id, not h.DocID: a use of h here would keep the hello — its
			// summary, its payload — alive for as long as the peer stays.)
			return fmt.Errorf("store: %q: unexpected frame kind %d from a client", e.id, f.Kind)
		}
	}
}

// streamCatchup sends a block cut's frames to a joining peer, falling
// back to the decoded full history if the stream breaks (concurrent
// compaction can delete a cut's files mid-stream; the peer deduplicates
// whatever blocks already arrived).
func (e *entry) streamCatchup(pc *netsync.PeerConn, cut *BlockCut) error {
	sent, serr := e.ds.StreamBlocks(cut, pc.SendRaw)
	if serr == nil {
		if sent == 0 {
			// Empty document: the contract is that the first events
			// frame is the snapshot, even when empty.
			return pc.SendEvents(nil)
		}
		return nil
	}
	e.srv.logf("store: block catch-up for %q fell back to decoded events after %d frames: %v", e.id, sent, serr)
	snapshot, err := e.ds.EventsSince(nil)
	if err != nil {
		return serr
	}
	e.srv.metrics.FullSnapshots.Inc()
	e.srv.metrics.SnapshotEvents.Add(int64(len(snapshot)))
	return pc.SendEvents(snapshot)
}

// serveReplica handles a server-to-server replication link: the peer
// node presented its run-length version summary; we answer with ours,
// followed by the events the peer is missing (so the link establishes
// a full bidirectional anti-entropy round — the peer pushes back what
// we are missing, netsync.Sync's exchange embedded in the relay
// protocol). Thereafter the peer pushes batches its clients upload
// (journaled and fanned out to our local subscribers, but never
// re-replicated — the origin pushes to every replica itself) and sends
// fresh summaries on a timer, which converge a lagging side from its
// journal without full retransfer.
func (s *Server) serveReplica(conn io.ReadWriter, h netsync.Hello) error {
	pc := netsync.NewPeerConn(conn)
	e, err := s.acquire(h.DocID)
	if err != nil {
		return err
	}
	defer s.release(e)
	if err := e.replicaExchange(pc, h.Summary); err != nil {
		return err
	}
	for {
		f, err := pc.RecvFrameRaw()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch f.Kind {
		case netsync.FrameEvents:
			if err := e.ingest(&batch{raw: f.Raw}, -1, true); err != nil {
				return err
			}
		case netsync.FrameSummary:
			if err := e.replicaExchange(pc, f.Summary); err != nil {
				return err
			}
		case netsync.FrameDone:
			return nil
		default:
			return fmt.Errorf("store: replica link for %q: unexpected frame kind %d", h.DocID, f.Kind)
		}
	}
}

// replicaExchange answers one anti-entropy round on a replica link:
// send our summary, then the events the peer is missing. The exchange
// is exact in both directions — the peer's event set is fully
// described, so nothing it holds is re-sent, and it can compute an
// exact push-back from our summary; when both sides are converged a
// journal-only document answers without materializing at all.
func (e *entry) replicaExchange(pc *netsync.PeerConn, theirs egwalker.VersionSummary) error {
	ours, err := e.ds.Summary()
	if err != nil {
		return err
	}
	catchup, err := e.ds.EventsSinceSummary(theirs)
	if err != nil {
		return err
	}
	if err := pc.SendSummary(ours); err != nil {
		return err
	}
	e.srv.metrics.ReplicaExchanges.Inc()
	e.srv.metrics.ReplicaEventsOut.Add(int64(len(catchup)))
	return pc.SendEvents(catchup)
}
