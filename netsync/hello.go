package netsync

import (
	"errors"
	"fmt"
	"io"

	"egwalker"
)

// Hello is a parsed doc hello: the first frame of every connection to a
// multi-document host, naming the document and what the peer can do.
// There is one hello: the v2 frame with the compact bit set, carrying a
// version summary when the peer resumes. ReadHello refuses everything
// else by name. Cluster routers parse it once (ReadHello), decide where
// the document lives, and either serve it (store.Server.ServeHello),
// answer with a redirect frame, or forward the hello verbatim to the
// owning node (Forward) and proxy the rest of the stream.
type Hello struct {
	DocID string
	// Compact: the peer decodes the compact columnar event encoding.
	// Every hello a host accepts sets it; writeHello refuses one that
	// does not.
	Compact bool
	// Redirect: the peer understands redirect frames — a non-owner node
	// may answer with one instead of serving or proxying. A node never
	// sends a redirect frame to a peer that did not advertise it.
	Redirect bool
	// Replica marks a server-to-server replication link: the host
	// answers with its own summary (so the dialing node can push what
	// the host is missing) and does not subscribe the connection to
	// live fan-out — replica links receive data only through the
	// anti-entropy exchange and the origin node's pushes.
	Replica bool
	// Summary, when non-nil, is the peer's run-length version summary:
	// its complete event set as per-agent seq ranges. It intersects
	// exactly with the host's own, so the host answers with the true
	// diff even when it is missing some of the peer's events (a
	// fail-over to a slightly-behind replica). Nil or empty means a cold
	// peer asking for everything.
	Summary egwalker.VersionSummary

	// typ/payload preserve the exact frame received, so a proxy can
	// forward it verbatim (Forward) without re-encoding drift.
	typ     byte
	payload []byte
}

// ReadHello reads a doc hello into parsed form. It refuses, with an
// error naming what was sent, the retired v1 frame, a v2 frame with the
// retired frontier-resume flag, and a v2 frame without the compact bit.
func ReadHello(r io.Reader) (Hello, error) {
	typ, payload, err := readFrame(r)
	if err != nil {
		return Hello{}, err
	}
	return parseHello(typ, payload)
}

func parseHello(typ byte, payload []byte) (Hello, error) {
	switch typ {
	case msgDocHello2:
	case msgDocHello:
		return Hello{}, errors.New("netsync: refused a v1 doc hello (frame type 0x04); send the v2 hello with the compact bit")
	default:
		return Hello{}, fmt.Errorf("netsync: expected doc hello, got frame type %#x", typ)
	}
	br := &byteReader{buf: payload}
	flags, err := br.uvarint()
	if err != nil {
		return Hello{}, err
	}
	switch {
	case flags&helloResume != 0:
		return Hello{}, errors.New("netsync: refused a frontier-resume doc hello (v2 resume flag); resume with a version summary")
	case flags&^uint64(knownHelloFlags) != 0:
		return Hello{}, fmt.Errorf("netsync: unknown doc hello flags %#x", flags)
	case flags&capCompact == 0:
		return Hello{}, errors.New("netsync: refused a v2 doc hello without the compact bit")
	}
	n, err := br.uvarint()
	if err != nil {
		return Hello{}, err
	}
	if n == 0 || n > maxDocID {
		return Hello{}, fmt.Errorf("netsync: bad doc ID length %d", n)
	}
	b, err := br.bytes(int(n))
	if err != nil {
		return Hello{}, err
	}
	h := Hello{
		DocID:    string(b),
		Compact:  true,
		Redirect: flags&helloRedirect != 0,
		Replica:  flags&helloReplica != 0,
		typ:      typ,
		payload:  payload,
	}
	if flags&helloSummary != 0 {
		h.Summary, _, err = unmarshalSummaryRest(payload[br.off:])
		if err != nil {
			return Hello{}, fmt.Errorf("netsync: bad version summary in doc hello: %w", err)
		}
	}
	return h, nil
}

// writeHello sends h as a v2 doc hello. h must advertise the compact
// encoding: no host accepts a hello without it.
func writeHello(w io.Writer, h Hello) error {
	if len(h.DocID) == 0 || len(h.DocID) > maxDocID {
		return fmt.Errorf("netsync: bad doc ID length %d", len(h.DocID))
	}
	if !h.Compact {
		return errors.New("netsync: a doc hello must advertise the compact encoding")
	}
	flags := uint64(capCompact)
	if h.Redirect {
		flags |= helloRedirect
	}
	if h.Replica {
		flags |= helloReplica
	}
	if h.Summary != nil {
		flags |= helloSummary
	}
	var payload []byte
	payload = putUvarint(payload, flags)
	payload = putUvarint(payload, uint64(len(h.DocID)))
	payload = append(payload, h.DocID...)
	if h.Summary != nil {
		payload = append(payload, MarshalVersionSummary(h.Summary)...)
	}
	return writeFrame(w, msgDocHello2, payload)
}

// Forward re-emits the hello exactly as it arrived — the proxy path: a
// non-owner node that must serve a client that cannot follow redirects
// replays the client's hello to the owning node and then pipes bytes
// both ways.
func (h Hello) Forward(w io.Writer) error {
	if h.typ == 0 {
		// Hello was built locally, not parsed off the wire.
		return writeHello(w, h)
	}
	return writeFrame(w, h.typ, h.payload)
}

// --- redirect frames ------------------------------------------------------

// maxRedirectAddrs and maxAddr bound a redirect frame: it arrives on an
// unauthenticated connection, so hostile counts must not allocate.
const (
	maxRedirectAddrs = 64
	maxAddr          = 256
)

// RedirectError is returned by PeerConn.Recv when the host answers the
// hello with a redirect frame instead of serving the document: the
// document lives on another node. Addrs lists where to go, preference
// order first (the serving node, then the rest of its replica set, so a
// client can fail over without a second round trip).
type RedirectError struct {
	Addrs []string
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("netsync: redirected to %v", e.Addrs)
}

func marshalRedirect(addrs []string) ([]byte, error) {
	if len(addrs) == 0 || len(addrs) > maxRedirectAddrs {
		return nil, fmt.Errorf("netsync: bad redirect addr count %d", len(addrs))
	}
	var payload []byte
	payload = putUvarint(payload, uint64(len(addrs)))
	for _, a := range addrs {
		if len(a) == 0 || len(a) > maxAddr {
			return nil, fmt.Errorf("netsync: bad redirect addr length %d", len(a))
		}
		payload = putUvarint(payload, uint64(len(a)))
		payload = append(payload, a...)
	}
	return payload, nil
}

func unmarshalRedirect(payload []byte) ([]string, error) {
	br := &byteReader{buf: payload}
	n, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxRedirectAddrs {
		return nil, fmt.Errorf("netsync: bad redirect addr count %d", n)
	}
	addrs := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		ln, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		if ln == 0 || ln > maxAddr {
			return nil, fmt.Errorf("netsync: bad redirect addr length %d", ln)
		}
		b, err := br.bytes(int(ln))
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, string(b))
	}
	return addrs, nil
}

// --- frame-level receive --------------------------------------------------

// Frame kinds returned by PeerConn.RecvFrame.
const (
	FrameEvents = iota
	FrameDone
	FrameRedirect
	FrameSummary
)

// Frame is one received protocol frame in decoded form. Replica links
// and redirect-aware clients use RecvFrame where plain clients use
// Recv: the extra kinds (a summary during an anti-entropy exchange, a
// redirect answer to a doc hello) are part of their protocol, not
// errors.
type Frame struct {
	Kind    int
	Events  []egwalker.Event        // FrameEvents (RecvFrame only)
	Raw     []byte                  // FrameEvents: the undecoded batch, for re-forwarding
	Addrs   []string                // FrameRedirect
	Summary egwalker.VersionSummary // FrameSummary
}

// RecvFrame blocks for the next frame of any kind. Like Recv it must be
// called from a single goroutine.
func (p *PeerConn) RecvFrame() (Frame, error) {
	f, err := p.RecvFrameRaw()
	if err == nil && f.Kind == FrameEvents {
		f.Events, err = egwalker.UnmarshalEventsAuto(f.Raw)
	}
	if err != nil {
		return Frame{}, err
	}
	return f, nil
}

// RecvFrameRaw is RecvFrame for a relay: an events frame comes back with
// only Raw set — the payload as it arrived, not decoded and not yet
// validated — so a host that journals and forwards encoded batches
// decodes one only where it needs the events (store.Server validates the
// payload before it stores or forwards a byte of it).
func (p *PeerConn) RecvFrameRaw() (Frame, error) {
	typ, payload, err := readFrame(p.br)
	if err != nil {
		return Frame{}, err
	}
	switch typ {
	case msgEvents:
		return Frame{Kind: FrameEvents, Raw: payload}, nil
	case msgDone:
		return Frame{Kind: FrameDone}, nil
	case msgRedirect:
		addrs, err := unmarshalRedirect(payload)
		if err != nil {
			return Frame{}, err
		}
		return Frame{Kind: FrameRedirect, Addrs: addrs}, nil
	case msgSummary:
		s, err := UnmarshalVersionSummary(payload)
		if err != nil {
			return Frame{}, err
		}
		return Frame{Kind: FrameSummary, Summary: s}, nil
	default:
		return Frame{}, fmt.Errorf("netsync: unexpected frame type %#x", typ)
	}
}

// SendHello sends a doc hello in parsed form (see writeHello).
func (p *PeerConn) SendHello(h Hello) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeHello(p.bw, h); err != nil {
		return err
	}
	return p.bw.Flush()
}

// SendRedirect answers a redirect-capable hello: the document lives at
// addrs (preference order). The connection should be closed after.
func (p *PeerConn) SendRedirect(addrs []string) error {
	payload, err := marshalRedirect(addrs)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeFrame(p.bw, msgRedirect, payload); err != nil {
		return err
	}
	return p.bw.Flush()
}

// SendSummary sends a version-summary frame — one side of an
// anti-entropy exchange on a replica link: each side tells the other
// its exact event set and pushes what the other is missing, so the
// answering side computes an exact diff even when it is behind the
// sender.
func (p *PeerConn) SendSummary(s egwalker.VersionSummary) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeFrame(p.bw, msgSummary, MarshalVersionSummary(s)); err != nil {
		return err
	}
	return p.bw.Flush()
}
