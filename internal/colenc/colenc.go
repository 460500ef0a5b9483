// Package colenc implements the compact columnar encoding of event
// batches — the repo's answer to the paper's "Smaller" claim (§3.8 and
// the Table 2 / Fig 11 file-size experiments).
//
// colenc serialises the wire form: an arbitrary causally ordered batch
// of events. The same frame therefore serves every byte path in the
// system — full document files (Doc.Save), store snapshots, the
// payloads of write-ahead-log blocks, and netsync snapshot/catch-up
// frames. (internal/encoding reads the legacy whole-document format,
// which nothing writes any more.) A whole document may be pruned — its
// deleted characters left out — and then is never read as a batch.
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
// EncodeRuns and DecodeRuns are the codec, and a part of a log leaves in
// runs (LogRuns). A whole document goes and comes back without them:
// SaveDocument writes the columns straight from a log's arrays and
// LoadDocument fills a log's arrays straight from the columns.
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
	"math/bits"
	"slices"
	"sync"
	"unicode/utf8"

	"egwalker/internal/causal"
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
	// FlagPruned marks a whole document whose content column leaves out
	// the characters of deleted inserts (docs/FORMAT.md, "Pruned
	// documents"). Only LoadDocument reads such a frame: a batch
	// decoder refuses it, so a pruned frame never travels as a batch.
	FlagPruned = 1 << 2

	batchFlags = FlagCachedDoc | FlagCompressed
	docFlags   = batchFlags | FlagPruned
)

// Limits on decoded values, shared with the legacy batch codec so a
// legal document can never produce a frame its receiver rejects.
const (
	maxAgentName = 4096 // bytes per agent name
	maxParents   = 1024 // parents per event
)

// ColumnarFrom is the batch size from which a batch is written in this
// codec rather than the root package's legacy one: for typed single-agent
// runs — inserts or deletes, from the root or after an external parent,
// agent names of 1 to 64 bytes — legacy is the smaller up to 3 events and
// columnar from 4 (docs/FORMAT.md has the table). egwalker.MarshalBatches
// writes by it, and package store journals an upload verbatim only when
// its encoding agrees with it.
const ColumnarFrom = 4

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

// encoder accumulates the columns of a frame: run by run for a batch
// (add), entry by entry and span by span for a whole log (SaveDocument).
type encoder struct {
	n        int // events so far
	names    []string
	agentIdx map[string]int
	aruns    []agentRun
	last     ID        // of event n-1
	op       oplog.Run // ops-column run not yet written (Len 0: none)
	excs     int       // parents-column entries
	excAt    int       // event index of the latest
	pruned   bool      // the content column is pruned (FlagPruned)

	agents, ops, parents, content []byte
	kept                          []byte // a pruned document's kept characters (SaveDocument)
}

// encoders keep SaveDocument's columns between documents.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// reset empties e for another frame and keeps its arrays.
func (e *encoder) reset() {
	clear(e.names)
	*e = encoder{names: e.names[:0], aruns: e.aruns[:0], agents: e.agents[:0], ops: e.ops[:0],
		parents: e.parents[:0], content: e.content[:0], kept: e.kept[:0]}
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
	if err := causal.CheckSeqs(r.ID.Seq, r.Len); err != nil {
		return fmt.Errorf("colenc: event %s/%d: %w", r.ID.Agent, r.ID.Seq, err)
	}
	for _, p := range r.Parents {
		if _, err := e.intern(p.Agent); err != nil {
			return err
		}
		if p.Seq < 0 || p.Seq > causal.MaxSeq {
			return fmt.Errorf("colenc: parent %s/%d passes the seq limit of %d", p.Agent, p.Seq, causal.MaxSeq)
		}
	}

	// Parents column: only events whose parents are not simply the
	// previous event in the batch — which, inside a run, every event
	// but the first is. Event 0 has no previous event, so it always
	// appears.
	if !(e.n > 0 && len(r.Parents) == 1 && r.Parents[0] == e.last) {
		if len(r.Parents) > maxParents {
			return fmt.Errorf("colenc: event %s/%d has %d parents", r.ID.Agent, r.ID.Seq, len(r.Parents))
		}
		e.openParents(len(r.Parents))
		for _, p := range r.Parents {
			// In-batch parents compress to a back-reference; the scan is
			// bounded because in real graphs a non-linear parent is
			// almost always recent. Fall back to the (agent, seq) form
			// beyond the window — both decode identically.
			pi := e.agentIdx[p.Agent]
			if back, ok := e.backref(pi, p.Seq); ok {
				e.parents = binary.AppendUvarint(e.parents, uint64(back)<<1)
			} else {
				e.parents = binary.AppendUvarint(binary.AppendUvarint(e.parents, uint64(pi)<<1|1), uint64(p.Seq))
			}
		}
	}
	e.pushAgent(ai, r.ID.Seq, r.Len)
	if k, ok := negativeAt(&r.Run); ok {
		return fmt.Errorf("colenc: negative position in event %s/%d", r.ID.Agent, r.ID.Seq+k)
	}
	if err := r.Run.CheckPos(); err != nil {
		return fmt.Errorf("colenc: event %s/%d: %w", r.ID.Agent, r.ID.Seq, err)
	}
	if k := e.pushContent(r.Content); k >= 0 {
		return fmt.Errorf("colenc: invalid rune %#x in event %s/%d", r.Content[k], r.ID.Agent, r.ID.Seq+k)
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

// openParents starts the parents-column entry of event e.n, of count
// parents, which follow: each a back-reference or an (agent index, seq).
// Entry indexes are delta-encoded (they are strictly increasing).
func (e *encoder) openParents(count int) {
	e.parents = binary.AppendUvarint(binary.AppendUvarint(e.parents, uint64(e.n-e.excAt)), uint64(count))
	e.excAt = e.n
	e.excs++
}

// pushAgent adds to the agents column n events from event e.n on, by the
// agent at index ai with sequence numbers from seq.
func (e *encoder) pushAgent(ai, seq, n int) {
	if k := len(e.aruns); k > 0 && e.aruns[k-1].agent == ai && e.aruns[k-1].seq+e.aruns[k-1].n == seq {
		e.aruns[k-1].n += n
	} else {
		e.aruns = append(e.aruns, agentRun{ai, seq, n, e.n})
	}
}

// negativeAt returns the offset in r of its first operation at a negative
// position, if it has one.
func negativeAt(r *oplog.Run) (int, bool) {
	if r.Pos < 0 {
		return 0, true
	}
	return r.Pos + 1, r.Dir < 0 && r.Pos < r.Len-1
}

// pushContent appends rs to the content column in UTF-8 and returns -1, or
// the index of the first that is not a valid rune.
func (e *encoder) pushContent(rs []rune) int {
	b := e.content
	for k, c := range rs {
		if uint32(c) >= utf8.RuneSelf && !utf8.ValidRune(c) {
			return k // the frame is refused: what the column holds does not matter
		}
		b = utf8.AppendRune(b, c)
	}
	e.content = b
	return -1
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
	e.ops = binary.AppendUvarint(binary.AppendUvarint(e.ops, tag), uint64(e.op.Len))
	e.ops = binary.AppendUvarint(e.ops, uint64(e.op.Pos))
	e.op.Len = 0
}

func encodeRuns(runs iter.Seq[Run], doc string, withDoc bool, opts Options) ([]byte, error) {
	e := encoder{agentIdx: map[string]int{}}
	for r := range runs {
		if err := e.add(r); err != nil {
			return nil, err
		}
	}
	if !withDoc {
		return e.frame(opts, e.content, -1, nil)
	}
	return e.frame(opts, e.content, len(doc), func(out []byte) []byte { return append(out, doc...) })
}

// frame allocates the frame of the columns e holds, the content column
// content and a doc column of doc bytes (-1: none) that appendDoc writes,
// at its exact size, and writes it.
func (e *encoder) frame(opts Options, content []byte, doc int, appendDoc func([]byte) []byte) ([]byte, error) {
	e.flushOp()
	agents := binary.AppendUvarint(e.agents, uint64(len(e.names)))
	for _, name := range e.names {
		agents = append(binary.AppendUvarint(agents, uint64(len(name))), name...)
	}
	agents = binary.AppendUvarint(agents, uint64(len(e.aruns)))
	for _, r := range e.aruns {
		agents = binary.AppendUvarint(binary.AppendUvarint(agents, uint64(r.agent)), uint64(r.seq))
		agents = binary.AppendUvarint(agents, uint64(r.n))
	}
	e.agents = agents

	flags := byte(0)
	if e.pruned {
		flags |= FlagPruned
	}
	// The decoder bounds inflation at maxDecompressed (decompression-
	// bomb defense), so content at or past that size must be written
	// uncompressed — otherwise Encode would produce a frame its own
	// Decode rejects, turning e.g. a store snapshot of a huge document
	// into an unreadable file. Compression is best-effort.
	if opts.Compress && len(content) < maxDecompressed {
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

	// Header, then count and each column length-prefixed.
	parents := uvarintLen(uint64(e.excs)) + len(e.parents)
	size := len(Magic) + 5 + uvarintLen(uint64(e.n)) + uvarintLen(uint64(len(agents))) + len(agents) +
		uvarintLen(uint64(len(e.ops))) + len(e.ops) + uvarintLen(uint64(parents)) + parents +
		uvarintLen(uint64(len(content))) + len(content)
	if doc >= 0 {
		flags |= FlagCachedDoc
		size += uvarintLen(uint64(doc)) + doc
	}
	out := make([]byte, len(Magic)+5, size)
	copy(out, Magic[:])
	out[4] = flags
	out = binary.AppendUvarint(out, uint64(e.n))
	out = append(binary.AppendUvarint(out, uint64(len(agents))), agents...)
	out = append(binary.AppendUvarint(out, uint64(len(e.ops))), e.ops...)
	out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(parents)), uint64(e.excs))
	out = append(out, e.parents...)
	out = append(binary.AppendUvarint(out, uint64(len(content))), content...)
	if doc >= 0 {
		out = appendDoc(binary.AppendUvarint(out, uint64(doc)))
	}
	binary.LittleEndian.PutUint32(out[5:9], crc32.Checksum(out[9:], crcTable))
	return out, nil
}

// uvarintLen is how many bytes the uvarint of v takes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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
