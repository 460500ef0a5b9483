package egwalker

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"egwalker/internal/causal"
	"egwalker/internal/colenc"
	"egwalker/internal/oplog"
)

// This file implements the legacy per-event encoding of event *batches*
// — arbitrary causally ordered subsets of an event graph — and
// MarshalBatches, the one writer that picks between it and the columnar
// codec (colenc.go). Whole-document files (Save/Load) use the columnar
// format; batches are the complement: the incremental unit that flows
// over the network (netsync frames) and into the payloads of the durable
// write-ahead log (package store, which alone writes and reads the log's
// block format). Following §3.8, parents pointing at events inside the
// batch compress to relative indexes and runs of events by one agent
// share one name-table entry; external parents are encoded as full
// (agent, seq) IDs.

// Limits on decoded batches, guarding against corrupt or hostile input
// triggering unbounded allocation. The parent cap bounds only semantic
// absurdity (a frontier of 1024 concurrent heads), not allocation —
// each parent consumes input bytes, so a hostile count self-limits —
// and is enforced identically on encode, so a legal document can never
// produce a batch its receiver rejects.
const (
	maxBatchAgentName = 4096 // bytes per agent name
	maxBatchParents   = 1024 // parents per event
)

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// batchReader consumes varints and byte runs from a slice.
type batchReader struct {
	buf []byte
	off int
}

func (r *batchReader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *batchReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(r)
}

func (r *batchReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

// MarshalEvents encodes a batch of events. The batch must be in causal
// order — parents precede children within the batch, as Doc.Events and
// Doc.EventsSince produce. Parents pointing at events in the batch are
// encoded as relative batch indexes; external parents as (agent, seq)
// IDs. It refuses what unmarshalEvents would: seqs past causal.MaxSeq or
// negative, positions past oplog.MaxPos.
func MarshalEvents(events []Event) ([]byte, error) {
	var buf []byte
	// Agent name table.
	agentIdx := map[string]int{}
	var agents []string
	intern := func(a string) int {
		if i, ok := agentIdx[a]; ok {
			return i
		}
		agentIdx[a] = len(agents)
		agents = append(agents, a)
		return len(agents) - 1
	}
	for _, ev := range events {
		intern(ev.ID.Agent)
		for _, p := range ev.Parents {
			intern(p.Agent)
		}
	}
	buf = appendUvarint(buf, uint64(len(agents)))
	for _, a := range agents {
		if len(a) > maxBatchAgentName {
			return nil, fmt.Errorf("egwalker: agent name too long (%d bytes)", len(a))
		}
		buf = appendUvarint(buf, uint64(len(a)))
		buf = append(buf, a...)
	}
	// Index of IDs within the batch for relative parent references.
	inBatch := make(map[EventID]int, len(events))
	buf = appendUvarint(buf, uint64(len(events)))
	for i, ev := range events {
		if err := causal.CheckSeqs(ev.ID.Seq, 1); err != nil {
			return nil, fmt.Errorf("egwalker: event %v: %w", ev.ID, err)
		}
		if err := oplog.Unit(ev.Insert, ev.Pos).CheckPos(); err != nil {
			return nil, fmt.Errorf("egwalker: event %v: %w", ev.ID, err)
		}
		buf = appendUvarint(buf, uint64(agentIdx[ev.ID.Agent]))
		buf = appendUvarint(buf, uint64(ev.ID.Seq))
		if len(ev.Parents) > maxBatchParents {
			return nil, fmt.Errorf("egwalker: event %v has %d parents", ev.ID, len(ev.Parents))
		}
		buf = appendUvarint(buf, uint64(len(ev.Parents)))
		for _, p := range ev.Parents {
			if j, ok := inBatch[p]; ok {
				// Relative reference: distance back within the batch,
				// tagged with a 0 byte.
				buf = appendUvarint(buf, 0)
				buf = appendUvarint(buf, uint64(i-j))
			} else {
				if err := causal.CheckSeqs(p.Seq, 0); err != nil {
					return nil, fmt.Errorf("egwalker: parent %v of event %v: %w", p, ev.ID, err)
				}
				buf = appendUvarint(buf, 1)
				buf = appendUvarint(buf, uint64(agentIdx[p.Agent]))
				buf = appendUvarint(buf, uint64(p.Seq))
			}
		}
		if ev.Insert {
			if ev.Content > math.MaxInt32 || ev.Content < 0 {
				return nil, fmt.Errorf("egwalker: invalid rune %d in event %v", ev.Content, ev.ID)
			}
			buf = appendUvarint(buf, 0)
			buf = appendUvarint(buf, uint64(ev.Pos))
			buf = appendUvarint(buf, uint64(ev.Content))
		} else {
			buf = appendUvarint(buf, 1)
			buf = appendUvarint(buf, uint64(ev.Pos))
		}
		inBatch[ev.ID] = i
	}
	return buf, nil
}

// unmarshalEvents decodes a batch encoded by MarshalEvents (readers call
// UnmarshalEventsAuto, which sniffs the encoding). Decoded
// sizes are validated against the payload length, so corrupt input
// cannot trigger unbounded allocation, and seqs and positions against
// the limits the columnar format and a document hold them to
// (causal.MaxSeq, oplog.MaxPos).
func unmarshalEvents(data []byte) ([]Event, error) {
	r := &batchReader{buf: data}
	nAgents, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nAgents > uint64(len(data)) {
		return nil, fmt.Errorf("egwalker: agent table larger than payload")
	}
	// Grow the table lazily with a modest initial capacity: a header
	// claiming a huge count costs nothing up front — each entry
	// consumes at least one payload byte, so a lie fails fast at the
	// truncation check instead of amplifying into a giant allocation.
	agents := make([]string, 0, minU64(nAgents, 1024))
	for i := uint64(0); i < nAgents; i++ {
		ln, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if ln > maxBatchAgentName {
			return nil, fmt.Errorf("egwalker: agent name too long (%d bytes)", ln)
		}
		b, err := r.bytes(int(ln))
		if err != nil {
			return nil, err
		}
		agents = append(agents, string(b))
	}
	agentAt := func(i uint64) (string, error) {
		if i >= uint64(len(agents)) {
			return "", fmt.Errorf("egwalker: agent index %d out of range", i)
		}
		return agents[i], nil
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("egwalker: event count larger than payload")
	}
	// Same lazy-growth defense: Event is ~10x larger than its minimum
	// 5-byte encoding, so trusting n for the allocation would let a
	// small frame demand an order of magnitude more memory than it
	// carries.
	events := make([]Event, 0, minU64(n, 4096))
	for i := uint64(0); i < n; i++ {
		var ev Event
		ai, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ev.ID.Agent, err = agentAt(ai)
		if err != nil {
			return nil, err
		}
		seq, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ev.ID.Seq = int(seq)
		if err := causal.CheckSeqs(ev.ID.Seq, 1); err != nil {
			return nil, fmt.Errorf("egwalker: event %v: %w", ev.ID, err)
		}
		nPar, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nPar > maxBatchParents {
			return nil, fmt.Errorf("egwalker: event %v has %d parents", ev.ID, nPar)
		}
		for p := uint64(0); p < nPar; p++ {
			tag, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			switch tag {
			case 0:
				back, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				if back == 0 || back > i {
					return nil, fmt.Errorf("egwalker: bad relative parent in event %v", ev.ID)
				}
				ev.Parents = append(ev.Parents, events[i-back].ID)
			case 1:
				pai, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				agent, err := agentAt(pai)
				if err != nil {
					return nil, err
				}
				pseq, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				if pseq > causal.MaxSeq {
					return nil, fmt.Errorf("egwalker: parent %s/%d of event %v passes the seq limit of %d", agent, pseq, ev.ID, causal.MaxSeq)
				}
				ev.Parents = append(ev.Parents, EventID{Agent: agent, Seq: int(pseq)})
			default:
				return nil, fmt.Errorf("egwalker: bad parent tag %d", tag)
			}
		}
		kind, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		pos, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ev.Pos = int(pos)
		if err := oplog.Unit(kind == 0, ev.Pos).CheckPos(); err != nil {
			return nil, fmt.Errorf("egwalker: event %v: %w", ev.ID, err)
		}
		switch kind {
		case 0:
			ev.Insert = true
			c, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if c > math.MaxInt32 {
				return nil, fmt.Errorf("egwalker: invalid rune in event %v", ev.ID)
			}
			ev.Content = rune(c)
		case 1:
		default:
			return nil, fmt.Errorf("egwalker: bad op kind %d", kind)
		}
		events = append(events, ev)
	}
	return events, nil
}

// MaxBatchBytes caps one encoded batch: a netsync frame's payload and a
// WAL block's. A journaled block can be forwarded as one frame and a
// frame journaled as one block; MarshalBatches never writes past it.
const MaxBatchBytes = 16 << 20

// maxBatchEvents is the batch size MarshalBatches splits at before it
// looks at bytes: 64k single-character events encode to ~1 MiB in the
// legacy codec, far under MaxBatchBytes.
const maxBatchEvents = 1 << 16

// MarshalBatches encodes a causally ordered batch as the payloads that
// netsync events frames and WAL blocks carry, and is the one place their
// encoding is chosen. It splits the batch at 64k events, writes each
// chunk in the legacy codec below colenc.ColumnarFrom events and
// columnar from it, and halves a chunk until it fits MaxBatchBytes; a
// lone event over the cap is an error. An empty batch is one payload.
// Applied in order, the payloads rebuild the batch (UnmarshalEventsAuto
// reads each).
func MarshalBatches(events []Event) ([][]byte, error) {
	return marshalBatches(events, MaxBatchBytes)
}

// marshalBatches is MarshalBatches with the cap as a parameter, so tests
// reach the halving and refusal paths without multi-mebibyte batches.
func marshalBatches(events []Event, limit int) ([][]byte, error) {
	out := make([][]byte, 0, len(events)/maxBatchEvents+1)
	var emit func(evs []Event) error
	emit = func(evs []Event) error {
		marshal := MarshalEvents
		if len(evs) >= colenc.ColumnarFrom {
			marshal = MarshalEventsCompact
		}
		payload, err := marshal(evs)
		if err != nil {
			return err
		}
		if len(payload) > limit {
			if len(evs) <= 1 {
				return fmt.Errorf("egwalker: a single event encodes to %d bytes, over the %d-byte batch cap", len(payload), limit)
			}
			if err := emit(evs[:len(evs)/2]); err != nil {
				return err
			}
			return emit(evs[len(evs)/2:])
		}
		out = append(out, payload)
		return nil
	}
	for off := 0; off == 0 || off < len(events); off += maxBatchEvents {
		if err := emit(events[off:min(off+maxBatchEvents, len(events))]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
