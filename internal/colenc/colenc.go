// Package colenc implements the compact columnar encoding of event
// batches — the repo's answer to the paper's "Smaller" claim (§3.8 and
// the Table 2 / Fig 11 file-size experiments).
//
// Where internal/encoding serialises a whole *oplog.Log (it needs the
// log's internal structure and is only usable for full documents),
// colenc serialises the wire form: an arbitrary causally ordered batch
// of events. The same frame therefore serves every byte path in the
// system — full document files (Doc.Save), store snapshots, write-ahead
// -log delta blocks, and netsync snapshot/catch-up frames.
//
// The format is column-oriented and run-length encoded, exploiting the
// shape of real editing histories:
//
//   - agents column: a name table plus (agent, seqStart, len) runs —
//     long stretches of events by one agent cost a few bytes;
//   - ops column: (kind, len, startPos) runs — a typed word or a held
//     backspace is one entry;
//   - parents column: only the events whose parents differ from the
//     default "the immediately preceding event in the batch";
//   - content column: the inserted characters as one contiguous UTF-8
//     string (optionally DEFLATE-compressed);
//   - doc column (optional): the cached final document text.
//
// The columns are runs, and so is everything this package hands over: a
// Run is the stretch of a batch that is one run in all of them at once,
// EncodeRuns and DecodeRuns are the codec, and a log leaves for a frame in
// runs (LogRuns). A frame that holds a whole document comes back without
// them: LoadDocument fills a log's arrays straight from the columns.
// Encode, Decode, BuildLog and EventsFromLog are the run codec behind one
// compress or expand step, for callers that hold a batch event by event.
//
// docs/FORMAT.md is the byte-level specification; testdata/colenc/ at
// the repo root holds golden files that must decode by hand from the
// spec alone.
package colenc

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"iter"
	"math"
	"slices"
	"unicode/utf8"

	"egwalker/internal/oplog"
)

// Magic identifies a colenc frame. The byte sequence never collides
// with the legacy whole-document format ("EGW1") and is vanishingly
// unlikely as a legacy MarshalEvents prefix (it would require a batch
// declaring exactly 69 agents whose first name is 71 bytes long and
// starts with '2').
var Magic = [4]byte{'E', 'G', 'C', '2'}

// Flag bits in the header. Decoders reject frames with unknown bits
// set, so future extensions cannot be silently misread.
const (
	// FlagCachedDoc marks the presence of the optional final-document
	// column.
	FlagCachedDoc = 1 << 0
	// FlagCompressed marks the content column as DEFLATE-compressed.
	FlagCompressed = 1 << 1

	knownFlags = FlagCachedDoc | FlagCompressed
)

// Limits on decoded values, shared with the legacy batch codec so a
// legal document can never produce a frame its receiver rejects.
const (
	maxAgentName = 4096 // bytes per agent name
	maxParents   = 1024 // parents per event
)

// ErrBadMagic reports input that is not a colenc frame at all.
var ErrBadMagic = errors.New("colenc: bad magic")

// ErrChecksum reports a frame whose CRC32-C does not match its body:
// the bytes were damaged after encoding.
var ErrChecksum = errors.New("colenc: checksum mismatch")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ID identifies an event globally, mirroring egwalker.EventID (the two
// packages cannot share the type: colenc is imported by the root
// package).
type ID struct {
	Agent string
	Seq   int
}

// Event is one editing event in wire form, mirroring egwalker.Event.
type Event struct {
	ID      ID
	Parents []ID
	Insert  bool
	Pos     int
	Content rune // inserts only
}

// Run is a stretch of a batch that is one run in every column: Len
// events by one agent with consecutive sequence numbers from ID.Seq, each
// after the first the sole child of its predecessor, together carrying
// one run of operations. Parents are the first event's.
type Run struct {
	ID      ID
	Parents []ID
	oplog.Run
}

// last returns the ID of the run's final event.
func (r *Run) last() ID { return ID{Agent: r.ID.Agent, Seq: r.ID.Seq + r.Len - 1} }

// Options control encoding.
type Options struct {
	// Compress applies DEFLATE to the content column. (The paper uses
	// LZ4; the role — cheap optional content compression — is the
	// same.) Best-effort: content at or past the decoder's inflation
	// cap (16 MiB) is written uncompressed so the frame stays readable.
	Compress bool
}

// Decoded is the result of decoding a frame event by event.
type Decoded struct {
	Events []Event
	// Doc is the cached final document text, if the frame embeds one.
	Doc string
	// HasDoc reports whether the doc column was present.
	HasDoc bool
}

// DecodedRuns is the result of decoding a frame.
type DecodedRuns struct {
	Runs []Run
	// NumEvents is the number of events the runs cover.
	NumEvents int
	// Doc is the cached final document text, if the frame embeds one.
	Doc string
	// HasDoc reports whether the doc column was present.
	HasDoc bool
}

// Sniff reports whether data begins with a colenc frame's magic.
func Sniff(data []byte) bool {
	return len(data) >= len(Magic) && bytes.Equal(data[:len(Magic)], Magic[:])
}

// op run tags (ops column).
const (
	tagInsert     = 0 // positions ascend by 1 within the run
	tagDeleteBack = 1 // backspace: positions descend by 1
	tagDeleteFwd  = 2 // forward delete: every position identical
)

func putUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// Encode serialises a causally ordered batch (parents precede children
// within the batch, as Doc.Events / Doc.EventsSince produce).
func Encode(events []Event, opts Options) ([]byte, error) {
	return encodeRuns(Runs(events), "", false, opts)
}

// EncodeRuns serialises a causally ordered batch given as runs. The
// bytes depend only on the events the runs cover, not on where one run
// ends and the next begins: adjacent runs that continue each other in a
// column are one run there. A run's Parents and Content are not kept
// past its turn.
func EncodeRuns(runs iter.Seq[Run], opts Options) ([]byte, error) {
	return encodeRuns(runs, "", false, opts)
}

// EncodeRunsDoc is EncodeRuns plus the optional cached-document column:
// doc must be the document text at the batch's final version. Decoders
// get it back verbatim and can skip replay entirely.
func EncodeRunsDoc(runs iter.Seq[Run], doc string, opts Options) ([]byte, error) {
	return encodeRuns(runs, doc, true, opts)
}

// Runs groups a batch held event by event into its runs. Each run's
// Content is valid until the next one is produced.
func Runs(events []Event) iter.Seq[Run] {
	return func(yield func(Run) bool) {
		var content []rune
		for i := 0; i < len(events); {
			first := &events[i]
			r := Run{ID: first.ID, Parents: first.Parents, Run: oplog.Unit(first.Insert, first.Pos)}
			// Extend while the events stay one agent's consecutive seqs,
			// each parented on its predecessor, and the ops one pattern.
			j := i + 1
			for ; j < len(events); j++ {
				ev, prev := &events[j], &events[j-1]
				if ev.ID.Agent != prev.ID.Agent || ev.ID.Seq != prev.ID.Seq+1 ||
					len(ev.Parents) != 1 || ev.Parents[0] != prev.ID ||
					r.Extend(oplog.Unit(ev.Insert, ev.Pos)) == 0 {
					break
				}
			}
			if first.Insert {
				content = content[:0]
				for _, ev := range events[i:j] {
					content = append(content, ev.Content)
				}
				r.Content = content
			}
			if !yield(r) {
				return
			}
			i = j
		}
	}
}

// agentRun is one entry of the agents column: n events by names[agent]
// with sequence numbers from seq, the first of them event number start
// of the batch.
type agentRun struct{ agent, seq, n, start int }

// encoder accumulates the columns of a frame run by run.
type encoder struct {
	n        int // events so far
	names    []string
	agentIdx map[string]int
	aruns    []agentRun
	last     ID        // of event n-1
	op       oplog.Run // ops-column run not yet written (Len 0: none)
	excs     int       // parents-column entries
	excAt    int       // event index of the latest

	ops, parents, content []byte
}

func (e *encoder) intern(a string) (int, error) {
	if i, ok := e.agentIdx[a]; ok {
		return i, nil
	}
	if len(a) > maxAgentName {
		return 0, fmt.Errorf("colenc: agent name too long (%d bytes)", len(a))
	}
	e.agentIdx[a] = len(e.names)
	e.names = append(e.names, a)
	return len(e.names) - 1, nil
}

// backref returns how far before event e.n the nearest event with ID
// (agent index ai, seq) sits, if within maxBackrefScan.
func (e *encoder) backref(ai, seq int) (int, bool) {
	for k := len(e.aruns) - 1; k >= 0; k-- {
		ar := &e.aruns[k]
		if e.n-(ar.start+ar.n-1) > maxBackrefScan {
			break
		}
		if ar.agent == ai && seq >= ar.seq && seq < ar.seq+ar.n {
			back := e.n - (ar.start + seq - ar.seq)
			return back, back <= maxBackrefScan
		}
	}
	return 0, false
}

func (e *encoder) add(r Run) error {
	if r.Len < 1 || (r.Kind == oplog.Insert && len(r.Content) != r.Len) {
		return fmt.Errorf("colenc: run %s/%d of %d events with %d characters", r.ID.Agent, r.ID.Seq, r.Len, len(r.Content))
	}
	// Agents column: name table + (agent, seqStart, len) runs. Parent
	// names enter the table too (external parents are encoded as table
	// references).
	ai, err := e.intern(r.ID.Agent)
	if err != nil {
		return err
	}
	if r.ID.Seq < 0 {
		return fmt.Errorf("colenc: negative seq in event %s/%d", r.ID.Agent, r.ID.Seq)
	}
	for _, p := range r.Parents {
		if _, err := e.intern(p.Agent); err != nil {
			return err
		}
	}

	// Parents column: only events whose parents are not simply the
	// previous event in the batch — which, inside a run, every event
	// but the first is. Event 0 has no previous event, so it always
	// appears. Entry indexes are delta-encoded (they are strictly
	// increasing).
	if !(e.n > 0 && len(r.Parents) == 1 && r.Parents[0] == e.last) {
		if len(r.Parents) > maxParents {
			return fmt.Errorf("colenc: event %s/%d has %d parents", r.ID.Agent, r.ID.Seq, len(r.Parents))
		}
		e.parents = putUvarint(e.parents, uint64(e.n-e.excAt))
		e.excAt = e.n
		e.excs++
		e.parents = putUvarint(e.parents, uint64(len(r.Parents)))
		for _, p := range r.Parents {
			// In-batch parents compress to a back-reference; the scan is
			// bounded because in real graphs a non-linear parent is
			// almost always recent. Fall back to the (agent, seq) form
			// beyond the window — both decode identically.
			pi := e.agentIdx[p.Agent]
			if back, ok := e.backref(pi, p.Seq); ok {
				e.parents = putUvarint(e.parents, uint64(back)<<1)
			} else {
				e.parents = putUvarint(e.parents, uint64(pi)<<1|1)
				e.parents = putUvarint(e.parents, uint64(p.Seq))
			}
		}
	}

	if k := len(e.aruns); k > 0 && e.aruns[k-1].agent == ai && e.aruns[k-1].seq+e.aruns[k-1].n == r.ID.Seq {
		e.aruns[k-1].n += r.Len
	} else {
		e.aruns = append(e.aruns, agentRun{ai, r.ID.Seq, r.Len, e.n})
	}

	// Ops column: (tag, len, startPos) runs; content column: the
	// inserted runes of every insert run, concatenated.
	if r.Pos < 0 || (r.Dir < 0 && r.Pos < r.Len-1) {
		seq := r.ID.Seq
		if r.Pos >= 0 {
			seq += r.Pos + 1
		}
		return fmt.Errorf("colenc: negative position in event %s/%d", r.ID.Agent, seq)
	}
	for k, c := range r.Content {
		if !utf8.ValidRune(c) {
			return fmt.Errorf("colenc: invalid rune %#x in event %s/%d", c, r.ID.Agent, r.ID.Seq+k)
		}
		e.content = utf8.AppendRune(e.content, c)
	}
	took := 0
	if e.op.Len > 0 {
		took = e.op.Extend(r.Run)
	}
	if took < r.Len {
		e.flushOp()
		e.op = r.Run.From(took)
		e.op.Content = nil // already in the content column; r's is the caller's
	}

	e.n += r.Len
	e.last = r.last()
	return nil
}

// flushOp writes the pending ops-column run, if any. A lone delete
// encodes as a forward run of one.
func (e *encoder) flushOp() {
	if e.op.Len == 0 {
		return
	}
	tag := uint64(tagInsert)
	if e.op.Kind == oplog.Delete {
		tag = tagDeleteFwd
		if e.op.Dir < 0 {
			tag = tagDeleteBack
		}
	}
	e.ops = putUvarint(e.ops, tag)
	e.ops = putUvarint(e.ops, uint64(e.op.Len))
	e.ops = putUvarint(e.ops, uint64(e.op.Pos))
	e.op.Len = 0
}

func encodeRuns(runs iter.Seq[Run], doc string, withDoc bool, opts Options) ([]byte, error) {
	e := encoder{agentIdx: map[string]int{}}
	for r := range runs {
		if err := e.add(r); err != nil {
			return nil, err
		}
	}
	e.flushOp()

	var agents []byte
	agents = putUvarint(agents, uint64(len(e.names)))
	for _, name := range e.names {
		agents = putUvarint(agents, uint64(len(name)))
		agents = append(agents, name...)
	}
	agents = putUvarint(agents, uint64(len(e.aruns)))
	for _, r := range e.aruns {
		agents = putUvarint(agents, uint64(r.agent))
		agents = putUvarint(agents, uint64(r.seq))
		agents = putUvarint(agents, uint64(r.n))
	}
	parents := append(putUvarint(nil, uint64(e.excs)), e.parents...)
	content := e.content

	flags := byte(0)
	if withDoc {
		flags |= FlagCachedDoc
	}
	// The decoder bounds inflation at maxDecompressed (decompression-
	// bomb defense), so content at or past that size must be written
	// uncompressed — otherwise Encode would produce a frame its own
	// Decode rejects, turning e.g. a store snapshot of a huge document
	// into an unreadable file. Compression is best-effort.
	if opts.Compress && len(content) >= maxDecompressed {
		opts.Compress = false
	}
	if opts.Compress {
		flags |= FlagCompressed
		var zbuf bytes.Buffer
		zw, err := flate.NewWriter(&zbuf, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		if _, err := zw.Write(content); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		content = zbuf.Bytes()
	}

	// Assemble the frame: header, then count and each column
	// length-prefixed.
	cols := [][]byte{agents, e.ops, parents, content}
	if withDoc {
		cols = append(cols, []byte(doc))
	}
	size := len(Magic) + 5 + binary.MaxVarintLen64
	for _, col := range cols {
		size += binary.MaxVarintLen64 + len(col)
	}
	out := make([]byte, len(Magic)+5, size)
	copy(out, Magic[:])
	out[4] = flags
	out = putUvarint(out, uint64(e.n))
	for _, col := range cols {
		out = putUvarint(out, uint64(len(col)))
		out = append(out, col...)
	}
	binary.LittleEndian.PutUint32(out[5:9], crc32.Checksum(out[9:], crcTable))
	return out, nil
}

// maxBackrefScan bounds the search for the in-batch form of a
// non-linear parent. Concurrency in editing histories is shallow; a
// parent further back still encodes, just in (agent, seq) form.
const maxBackrefScan = 64

// Decode parses a colenc frame. It validates everything — magic,
// unknown flags, checksum, column framing, run totals, reference
// ranges — and returns a clean error on any malformed input; it never
// panics, and allocations grow only as runs actually decode.
//
// Run-length decoding has inherent expansion (a long held-backspace run
// is a handful of bytes describing many events), so a frame from an
// untrusted source can legitimately be small and decode to many events.
// Callers on bounded paths — network frames, WAL blocks, fuzzing —
// should use DecodeLimit with the batch cap their writers enforce.
func Decode(data []byte) (*Decoded, error) {
	return DecodeLimit(data, math.MaxInt32)
}

// DecodeLimit is Decode with an upper bound on the decoded event count;
// frames declaring more events are rejected before any proportional
// work happens.
func DecodeLimit(data []byte, maxEvents int) (*Decoded, error) {
	dec, err := DecodeRuns(data, maxEvents)
	if err != nil {
		return nil, err
	}
	return &Decoded{Events: expand(dec.NumEvents, slices.Values(dec.Runs)), Doc: dec.Doc, HasDoc: dec.HasDoc}, nil
}

// expand writes out the n events that runs cover, one Event each. The
// parents slice of an event whose sole parent is its predecessor in the
// batch is cut, capacity capped, from one array shared by all of them.
func expand(n int, runs iter.Seq[Run]) []Event {
	events := make([]Event, 0, n)
	ids := make([]ID, n) // ids[i] is events[i].ID
	for r := range runs {
		for k := 0; k < r.Len; k++ {
			i := len(events)
			ev := Event{ID: ID{Agent: r.ID.Agent, Seq: r.ID.Seq + k}, Insert: r.Kind == oplog.Insert, Pos: r.Pos + k*int(r.Dir)}
			if ev.Insert {
				ev.Content = r.Content[k]
			}
			switch {
			case k > 0 || (i > 0 && len(r.Parents) == 1 && r.Parents[0] == ids[i-1]):
				ev.Parents = ids[i-1 : i : i]
			case len(r.Parents) > 0:
				ev.Parents = slices.Clone(r.Parents)
			}
			ids[i] = ev.ID
			events = append(events, ev)
		}
	}
	return events
}

// DecodeRuns parses a colenc frame into its runs, with Decode's
// validation and DecodeLimit's bound on the event count. The runs'
// Content slices share one array.
func DecodeRuns(data []byte, maxEvents int) (*DecodedRuns, error) {
	return new(Decoder).DecodeRuns(data, maxEvents)
}
