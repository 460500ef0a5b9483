// Package netsync replicates egwalker documents over a network. It
// implements the paper's replication layer (§2.1): a reliable protocol
// that eventually delivers every event to every replica, on top of any
// stream transport (TCP, net.Pipe, tls.Conn, ...).
//
// The wire format follows §3.8: when sending a subset of events,
// references to parent events outside the subset are encoded as
// (agent, seq) event IDs; parents inside the subset compress to
// relative indexes, and runs of events by one agent share one ID entry.
// The batch codec lives in the root package so the durable store's
// write-ahead log and the network share one encoding: every events frame
// is one payload of egwalker.MarshalBatches, which picks the legacy or
// the columnar codec by batch size, and every reader decodes it with
// egwalker.UnmarshalEventsAuto.
//
// Every exchange starts with a version summary — each side's exact
// event set as per-agent seq ranges — so the other side answers with
// the true diff:
//
//   - Sync: one-shot anti-entropy — two replicas exchange summaries and
//     the events the other is missing, then confirm convergence.
//   - Relay: a hub that fans events out to connected peers for live
//     collaboration (examples/tcp-pair shows both).
//
// A connection to a host begins with the doc hello (Hello, writeHello,
// ReadHello): the v2 frame with the compact bit set, naming the
// document and carrying the client's summary when it resumes, so one
// listener can multiplex many documents (see store.Server). Dial sends
// it and returns the Client that speaks the rest of the stream.
package netsync

import (
	"encoding/binary"
	"fmt"
	"io"

	"egwalker"
)

// Message types.
// Frame types 0x01 (the frontier Sync hello) and 0x04 (the v1 doc
// hello) are retired: Sync names the first when a peer sends it, and
// ReadHello the second.
const (
	msgHello     = 0x01 // retired: version (list of event IDs), capability byte
	msgEvents    = 0x02 // payload: encoded event subset (legacy or columnar, sniffed)
	msgDone      = 0x03 // payload: empty
	msgDocHello  = 0x04 // retired: uvarint-length-prefixed document ID, resume version
	msgDocHello2 = 0x05 // payload: uvarint flags, doc ID, optional version summary
	msgRedirect  = 0x06 // payload: uvarint count, then length-prefixed node addresses
	msgSummary   = 0x07 // payload: version summary (Sync hello, anti-entropy exchange)
)

// Flag bits in a v2 doc hello (msgDocHello2). Every accepted hello sets
// capCompact: the peer decodes the compact columnar event encoding
// (docs/FORMAT.md) as well as the legacy one, so the host writes each
// frame in whichever egwalker.MarshalBatches picks.
const (
	capCompact  = 1 << 0
	helloResume = 1 << 1 // retired: a frontier version followed the doc ID; refused
	// helloRedirect advertises that the client understands redirect
	// frames: a cluster node that does not own the named document may
	// answer msgRedirect instead of serving or proxying — never
	// unsolicited.
	helloRedirect = 1 << 2
	// helloReplica marks a server-to-server replication link (see
	// Hello.Replica).
	helloReplica = 1 << 3
	// helloSummary: a run-length version summary follows the doc ID. A
	// summary describes the peer's complete event set, so the host
	// answers with an exact diff (see Hello.Summary).
	helloSummary = 1 << 4

	knownHelloFlags = capCompact | helloRedirect | helloReplica | helloSummary
)

// maxDocID bounds the document ID in a doc-hello frame.
const maxDocID = 4096

// maxAgentName bounds an agent name in a decoded summary, and maxSeq
// bounds a decoded sequence number. Both arrive in the
// unauthenticated first frame of a connection, and both were once
// cast to int unchecked — a 2^63 seq uvarint decoded to a *negative*
// EventID.Seq, poisoning every downstream comparison and map keyed on
// it. maxSeq is far above any real history (2^48 single-character
// events is ~280 TB of text) while keeping all arithmetic on the
// value safely inside int64.
const (
	maxAgentName = 4096
	maxSeq       = 1 << 48
)

// writeFrame writes a length-prefixed, typed frame. A payload is at most
// egwalker.MaxBatchBytes, the cap MarshalBatches splits batches under.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	if len(payload) > egwalker.MaxBatchBytes {
		return fmt.Errorf("netsync: frame too large (%d bytes)", len(payload))
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, validating the advertised length against
// egwalker.MaxBatchBytes before allocating, so a corrupt or hostile peer
// advertising a huge length prefix cannot trigger an unbounded
// allocation.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > egwalker.MaxBatchBytes {
		return 0, nil, fmt.Errorf("netsync: oversized frame (%d bytes, cap %d)", n, egwalker.MaxBatchBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// writeEventsChunked writes a batch as the msgEvents frames of
// egwalker.MarshalBatches' payloads: an empty batch as one frame (a
// receiver takes the first events frame for the catch-up even when
// there is nothing in it). Receivers apply frames independently; later
// frames may reference earlier frames' events as external parents,
// which Apply resolves (they are already admitted by the time the later
// frame arrives).
func writeEventsChunked(w io.Writer, events []egwalker.Event) error {
	batches, err := egwalker.MarshalBatches(events)
	if err != nil {
		return err
	}
	for _, batch := range batches {
		if err := writeFrame(w, msgEvents, batch); err != nil {
			return err
		}
	}
	return nil
}

// --- varint helpers -------------------------------------------------------

func putUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

type byteReader struct {
	buf []byte
	off int
}

func (r *byteReader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(r)
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}
