package netsync

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"

	"egwalker"
)

// Sync performs one round of anti-entropy between the local document
// and a remote peer over a bidirectional stream. Both sides must call
// Sync concurrently (each end of the connection runs the same
// symmetric protocol):
//
//  1. exchange summary frames carrying each side's version summary;
//  2. send the events the peer is missing (empty batches allowed);
//  3. exchange DONE frames.
//
// A summary names the peer's exact event set, so the diff is exact even
// when the peer holds events this side has never seen. A peer that
// opens with anything else — the retired frontier hello included — is
// refused. On return, the local document contains the union of both
// histories. Duplicate and already-known events are ignored, so Sync is
// idempotent and safe to run repeatedly (e.g. on a timer, or after
// reconnecting).
func Sync(doc *egwalker.Doc, conn io.ReadWriter) error {
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)

	// Writes run in a goroutine so the protocol works over unbuffered
	// transports (both sides write their summary before either reads).
	// The two send stages are sequenced through channels, so the writer
	// is never used concurrently.
	helloErr := make(chan error, 1)
	go func() {
		err := writeFrame(bw, msgSummary, MarshalVersionSummary(doc.Summary()))
		if err == nil {
			err = bw.Flush()
		}
		helloErr <- err
	}()

	typ, payload, err := readFrame(br)
	if err != nil {
		return fmt.Errorf("netsync: reading hello: %w", err)
	}
	if err := <-helloErr; err != nil {
		return err
	}
	switch typ {
	case msgSummary:
	case msgHello:
		return errors.New("netsync: refused a frontier Sync hello (frame type 0x01) with no version summary")
	default:
		return fmt.Errorf("netsync: expected a summary hello, got frame type %#x", typ)
	}
	theirs, err := UnmarshalVersionSummary(payload)
	if err != nil {
		return fmt.Errorf("netsync: bad version summary in hello: %w", err)
	}
	missing, err := doc.EventsSinceSummary(theirs)
	if err != nil {
		return err
	}
	sendErr := make(chan error, 1)
	go func() {
		err := writeEventsChunked(bw, missing)
		if err == nil {
			err = writeFrame(bw, msgDone, nil)
		}
		if err == nil {
			err = bw.Flush()
		}
		sendErr <- err
	}()
	defer func() { <-sendErr }()

	// Apply what we receive until their DONE.
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return fmt.Errorf("netsync: reading events: %w", err)
		}
		switch typ {
		case msgEvents:
			events, err := egwalker.UnmarshalEventsAuto(payload)
			if err != nil {
				return err
			}
			if _, err := doc.Apply(events); err != nil {
				return err
			}
		case msgDone:
			return nil
		default:
			return fmt.Errorf("netsync: unexpected frame type %#x", typ)
		}
	}
}

// Relay is a star-topology hub for live collaboration: peers connect
// with the doc hello (Dial), receive the history their summary lacks,
// and thereafter every batch of events a peer uploads is stored and
// fanned out to all other peers.
// The relay itself is just another replica — it holds a Doc and
// forwards events; it performs no transformation (the paper's "relay
// server could store and forward messages", §2.1).
type Relay struct {
	mu    sync.Mutex
	doc   *egwalker.Doc
	peers map[int]chan []byte
	next  int
}

// NewRelay returns a relay around the given document (which may already
// contain history).
func NewRelay(doc *egwalker.Doc) *Relay {
	return &Relay{doc: doc, peers: make(map[int]chan []byte)}
}

// Doc returns the relay's replica (callers must not mutate it
// concurrently with Serve).
func (r *Relay) Doc() *egwalker.Doc {
	return r.doc
}

// Serve handles one peer connection; it returns when the peer
// disconnects. The peer opens with the doc hello (its document ID is
// not checked: a relay holds one document), and Serve answers with the
// events its summary lacks. Run it in its own
// goroutine per peer.
func (r *Relay) Serve(conn io.ReadWriter) error {
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)
	h, err := ReadHello(br)
	if err != nil {
		return err
	}

	// Register the peer and take its catch-up under one lock, so it
	// misses no batch fanned out in between.
	r.mu.Lock()
	id := r.next
	r.next++
	outbox := make(chan []byte, 256)
	r.peers[id] = outbox
	catchup, err := r.doc.EventsSinceSummary(h.Summary)
	r.mu.Unlock()
	// Deregister before closing the outbox: fanout (under mu) may still
	// hold a reference, and a send on a closed channel would panic.
	defer func() {
		r.mu.Lock()
		delete(r.peers, id)
		r.mu.Unlock()
		close(outbox)
	}()

	if err != nil {
		return err
	}
	if err := writeEventsChunked(bw, catchup); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// Writer: drain the outbox.
	writeErr := make(chan error, 1)
	go func() {
		for b := range outbox {
			if err := writeFrame(bw, msgEvents, b); err != nil {
				writeErr <- err
				return
			}
			if err := bw.Flush(); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()

	// Reader: ingest peer uploads and fan them out.
	for {
		select {
		case err := <-writeErr:
			return err
		default:
		}
		typ, payload, err := readFrame(br)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch typ {
		case msgEvents:
			events, err := egwalker.UnmarshalEventsAuto(payload)
			if err != nil {
				return err
			}
			r.mu.Lock()
			_, applyErr := r.doc.Apply(events)
			if applyErr == nil {
				for pid, ch := range r.peers {
					if pid == id {
						continue
					}
					select {
					case ch <- payload:
					default:
						// Slow peer: drop; it will catch up via Sync.
					}
				}
			}
			r.mu.Unlock()
			if applyErr != nil {
				return applyErr
			}
		case msgDone:
			return nil
		default:
			return fmt.Errorf("netsync: relay: unexpected frame type %#x", typ)
		}
	}
}

// PeerConn is the frame-level view of one replication connection. It
// is the building block external hosts use to speak the relay protocol
// without reimplementing framing: store.Server serves many documents by
// reading the doc hello and then driving a PeerConn per connection.
// Send methods are safe for concurrent use with each other; Recv must
// be called from a single goroutine.
type PeerConn struct {
	mu sync.Mutex
	bw *bufio.Writer
	br *bufio.Reader
}

// NewPeerConn wraps a stream connection for frame-level use.
func NewPeerConn(conn io.ReadWriter) *PeerConn {
	return &PeerConn{bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}
}

// SendEvents sends a batch as the events frames of
// egwalker.MarshalBatches' payloads — one frame for an empty batch.
func (p *PeerConn) SendEvents(events []egwalker.Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeEventsChunked(p.bw, events); err != nil {
		return err
	}
	return p.bw.Flush()
}

// SendRaw forwards an already-marshalled event batch (as returned in
// Recv's raw result) without re-encoding — the fan-out fast path.
func (p *PeerConn) SendRaw(batch []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeFrame(p.bw, msgEvents, batch); err != nil {
		return err
	}
	return p.bw.Flush()
}

// SendRawBatch forwards several already-marshalled event batches as
// consecutive frames under one lock acquisition and one Flush — the
// writev-style path a host's per-subscriber writer uses after draining
// its outbox, so a burst of queued frames costs one syscall instead of
// one per frame.
func (p *PeerConn) SendRawBatch(batches [][]byte) error {
	if len(batches) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range batches {
		if err := writeFrame(p.bw, msgEvents, b); err != nil {
			return err
		}
	}
	return p.bw.Flush()
}

// SendDone sends an orderly end-of-stream frame.
func (p *PeerConn) SendDone() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeFrame(p.bw, msgDone, nil); err != nil {
		return err
	}
	return p.bw.Flush()
}

// Recv blocks for the next frame. It returns the decoded events plus
// the raw batch payload (for re-forwarding), or done=true on an orderly
// DONE frame. io.EOF reports the peer hanging up without one. A
// redirect frame (the answer a cluster node gives a redirect-capable
// hello for a document it does not own) is returned as a
// *RedirectError, so callers that advertised the capability can follow
// it with errors.As; any other unexpected frame type is a plain error.
func (p *PeerConn) Recv() (events []egwalker.Event, raw []byte, done bool, err error) {
	f, err := p.RecvFrame()
	if err != nil {
		return nil, nil, false, err
	}
	switch f.Kind {
	case FrameEvents:
		return f.Events, f.Raw, false, nil
	case FrameDone:
		return nil, nil, true, nil
	case FrameRedirect:
		return nil, nil, false, &RedirectError{Addrs: f.Addrs}
	default:
		return nil, nil, false, errors.New("netsync: unexpected summary frame")
	}
}

// Client is the peer side of a Relay or store.Server connection: it
// applies inbound batches to the local document and uploads local
// edits.
type Client struct {
	doc *egwalker.Doc
	pc  *PeerConn
}

// Dial starts a client connection to a host (a Relay, store.Server or
// cluster node) for the hosted document docID: it sends the doc hello
// carrying doc's version summary, so the host answers with exactly the
// events doc lacks — everything for an empty doc, nothing it already
// holds for a reconnecting replica, even when the host is missing some
// of doc's events (a fail-over to a slightly-behind replica). The
// catch-up and the live stream arrive through Receive.
func Dial(doc *egwalker.Doc, conn io.ReadWriter, docID string) (*Client, error) {
	c := &Client{doc: doc, pc: NewPeerConn(conn)}
	if err := c.pc.SendHello(Hello{DocID: docID, Compact: true, Summary: doc.Summary()}); err != nil {
		return nil, err
	}
	return c, nil
}

// Push uploads local events (e.g. the result of Doc.EventsSince after
// local edits).
func (c *Client) Push(events []egwalker.Event) error {
	return c.pc.SendEvents(events)
}

// Receive blocks for the next inbound batch and applies it, returning
// the patches applied to the local document. io.EOF signals a close
// (orderly or not).
func (c *Client) Receive() ([]egwalker.Patch, error) {
	events, _, done, err := c.pc.Recv()
	if err != nil {
		return nil, err
	}
	if done {
		return nil, io.EOF
	}
	return c.doc.Apply(events)
}

// Close sends an orderly DONE frame.
func (c *Client) Close() error {
	return c.pc.SendDone()
}
