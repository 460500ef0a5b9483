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
// EncodeRuns and DecodeRuns are the codec, and the log is read and built
// in runs (LogRuns, BuildLogRuns). Encode, Decode, BuildLog and
// EventsFromLog are the same codec behind one compress or expand step,
// for callers that hold a batch event by event.
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
	"io"
	"iter"
	"math"
	"slices"
	"sort"
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

// reader consumes varints and byte runs from a slice, tracking errors.
type reader struct {
	buf []byte
	off int
}

func (r *reader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	return binary.ReadUvarint(r)
}

// count reads a uvarint that must fit in an int and be ≤ limit.
func (r *reader) count(limit int, what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("colenc: %s %d exceeds limit %d", what, v, limit)
	}
	return int(v), nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(r.buf)-r.off {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) done() bool { return r.off == len(r.buf) }

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
	r, flags, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	body := r.buf
	// One run (a few bytes) may cover up to maxRunLen events, so the
	// body length times that factor bounds any honest count.
	limit := maxEvents
	if cap := len(body) * maxRunLen; cap < limit {
		limit = cap
	}
	n, err := r.count(limit, "event count")
	if err != nil {
		return nil, err
	}
	readCol := func() (*reader, error) {
		ln, err := r.count(len(body), "column length")
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(ln)
		if err != nil {
			return nil, err
		}
		return &reader{buf: b}, nil
	}
	agentsCol, err := readCol()
	if err != nil {
		return nil, err
	}
	opsCol, err := readCol()
	if err != nil {
		return nil, err
	}
	parentsCol, err := readCol()
	if err != nil {
		return nil, err
	}
	contentCol, err := readCol()
	if err != nil {
		return nil, err
	}
	dec := &DecodedRuns{NumEvents: n, HasDoc: flags&FlagCachedDoc != 0}
	if dec.HasDoc {
		docCol, err := readCol()
		if err != nil {
			return nil, err
		}
		dec.Doc = string(docCol.buf)
	}
	if !r.done() {
		return nil, fmt.Errorf("colenc: %d trailing bytes after last column", len(body)-r.off)
	}

	ids, err := decodeAgents(agentsCol, n)
	if err != nil {
		return nil, err
	}
	content, err := decodeContent(contentCol.buf, flags&FlagCompressed != 0)
	if err != nil {
		return nil, err
	}
	dec.Runs, err = decodeRuns(ids, opsCol, parentsCol, content, n)
	if err != nil {
		return nil, err
	}
	return dec, nil
}

// maxRunLen is the allocation-defense multiplier: one run (≥ 3 encoded
// bytes) may legitimately cover many events, but letting the event
// count exceed body-bytes × maxRunLen would allow a tiny frame to
// declare an absurd count. 2^16 matches the largest batch bounded
// writers produce (egwalker.MaxEventsPerBlock).
const maxRunLen = 1 << 16

// agentTable is the decoded agents column.
type agentTable struct {
	names []string
	runs  []agentRun
}

// idAt resolves event index i to its ID.
func (t *agentTable) idAt(i int) ID {
	k := sort.Search(len(t.runs), func(k int) bool { return t.runs[k].start+t.runs[k].n > i })
	r := t.runs[k]
	return ID{Agent: t.names[r.agent], Seq: r.seq + (i - r.start)}
}

func decodeAgents(r *reader, n int) (*agentTable, error) {
	nNames, err := r.count(len(r.buf), "agent name count")
	if err != nil {
		return nil, err
	}
	t := &agentTable{names: make([]string, 0, nNames)}
	for i := 0; i < nNames; i++ {
		ln, err := r.count(maxAgentName, "agent name length")
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(ln)
		if err != nil {
			return nil, err
		}
		t.names = append(t.names, string(b))
	}
	nRuns, err := r.count(len(r.buf)+1, "agent run count")
	if err != nil {
		return nil, err
	}
	total := 0
	for i := 0; i < nRuns; i++ {
		ai, err := r.count(math.MaxInt32, "agent index")
		if err != nil {
			return nil, err
		}
		if ai >= len(t.names) {
			return nil, fmt.Errorf("colenc: agent index %d out of range (%d names)", ai, len(t.names))
		}
		seq, err := r.count(math.MaxInt32, "agent seq")
		if err != nil {
			return nil, err
		}
		ln, err := r.count(n-total, "agent run length")
		if err != nil {
			return nil, err
		}
		if ln == 0 {
			return nil, fmt.Errorf("colenc: empty agent run")
		}
		if seq+ln > math.MaxInt32 {
			return nil, fmt.Errorf("colenc: agent seq overflow")
		}
		t.runs = append(t.runs, agentRun{ai, seq, ln, total})
		total += ln
	}
	if total != n {
		return nil, fmt.Errorf("colenc: agent runs cover %d events, want %d", total, n)
	}
	if !r.done() {
		return nil, fmt.Errorf("colenc: trailing bytes in agents column")
	}
	return t, nil
}

// maxDecompressed bounds the inflated content column against
// decompression bombs; it matches the frame/delta payload cap.
const maxDecompressed = 16 << 20

// decodeContent returns the content column's characters.
func decodeContent(buf []byte, compressed bool) ([]rune, error) {
	if compressed {
		raw, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(buf)), maxDecompressed))
		if err != nil {
			return nil, fmt.Errorf("colenc: decompress content: %w", err)
		}
		if len(raw) >= maxDecompressed {
			return nil, fmt.Errorf("colenc: decompressed content exceeds %d bytes", maxDecompressed)
		}
		buf = raw
	}
	content := make([]rune, 0, utf8.RuneCount(buf))
	for off := 0; off < len(buf); {
		if b := buf[off]; b < utf8.RuneSelf {
			content = append(content, rune(b))
			off++
			continue
		}
		ru, size := utf8.DecodeRune(buf[off:])
		if ru == utf8.RuneError && size == 1 {
			return nil, fmt.Errorf("colenc: invalid UTF-8 in content column")
		}
		content = append(content, ru)
		off += size
	}
	return content, nil
}

// decodeRuns walks the agents, ops and parents columns in step and cuts
// a run wherever any of them does: at the end of an agent run, at the
// end of an op run, and before an event with an explicit parents entry.
// Events between explicit entries take the default parent list: the
// immediately preceding event.
func decodeRuns(ids *agentTable, ops, parents *reader, content []rune, n int) ([]Run, error) {
	nExc, err := parents.count(n, "parent entry count")
	if err != nil {
		return nil, err
	}
	if n > 0 && nExc == 0 {
		return nil, fmt.Errorf("colenc: missing parents entry for event 0")
	}
	excAt := n // event index of the next parents entry; n: none left
	if nExc > 0 {
		step, err := parents.count(n, "parent entry index")
		if err != nil {
			return nil, err
		}
		if step != 0 {
			return nil, fmt.Errorf("colenc: first parents entry at %d, want 0", step)
		}
		excAt = 0
	}

	// Grow lazily: a run-length format legitimately describes many
	// events in few bytes, so trust the count only as runs materialise.
	var runs []Run
	// Every run's Parents is cut, capacity capped, from one arena, which
	// is chunked rather than moved when it fills up — the runs before
	// keep the chunks they point into. A chunk is as large as the runs
	// decoded so far are many, never as a count the frame claims: a frame
	// of one run allocates one parent, a frame of thousands a dozen
	// chunks.
	var arena []ID
	parentsRoom := func(n int) {
		if cap(arena)-len(arena) < n {
			arena = make([]ID, 0, max(n, min(len(runs), 4096)))
		}
	}
	var (
		ar            = -1 // current agent run
		arEnd         = 0  // event index it ends at
		op            oplog.Run
		opAt, opEnd   = 0, 0 // event indexes the current op run covers
		used          = 0    // characters of content consumed
		last          ID     // of event i-1
		entriesParsed = 0
	)
	for i := 0; i < n; {
		if i == arEnd {
			ar++
			arEnd += ids.runs[ar].n
		}
		if i == opEnd {
			tag, err := ops.uvarint()
			if err != nil {
				return nil, err
			}
			runLen, err := ops.count(n-i, "op run length")
			if err != nil {
				return nil, err
			}
			if runLen == 0 {
				return nil, fmt.Errorf("colenc: empty op run")
			}
			pos, err := ops.count(math.MaxInt32, "op position")
			if err != nil {
				return nil, err
			}
			op = oplog.Run{Kind: oplog.Delete, Pos: pos}
			switch tag {
			case tagInsert:
				if pos+runLen > math.MaxInt32 {
					return nil, fmt.Errorf("colenc: insert run position overflow")
				}
				if runLen > len(content)-used {
					return nil, fmt.Errorf("colenc: content column exhausted")
				}
				op.Kind, op.Dir = oplog.Insert, 1
			case tagDeleteBack:
				if runLen-1 > pos {
					return nil, fmt.Errorf("colenc: backspace run of %d underflows position %d", runLen, pos)
				}
				op.Dir = -1
			case tagDeleteFwd:
			default:
				return nil, fmt.Errorf("colenc: bad op tag %d", tag)
			}
			opAt, opEnd = i, i+runLen
		}

		a := ids.runs[ar]
		run := Run{ID: ID{Agent: ids.names[a.agent], Seq: a.seq + (i - a.start)}}
		if i == excAt {
			nPar, err := parents.count(maxParents, "parent count")
			if err != nil {
				return nil, err
			}
			parentsRoom(nPar)
			from := len(arena)
			for p := 0; p < nPar; p++ {
				v, err := parents.uvarint()
				if err != nil {
					return nil, err
				}
				if v&1 == 0 {
					back := v >> 1
					if back == 0 || back > uint64(i) {
						return nil, fmt.Errorf("colenc: bad parent back-reference %d at event %d", back, i)
					}
					arena = append(arena, ids.idAt(i-int(back)))
				} else {
					ai := v >> 1
					if ai >= uint64(len(ids.names)) {
						return nil, fmt.Errorf("colenc: parent agent index %d out of range", ai)
					}
					seq, err := parents.count(math.MaxInt32, "parent seq")
					if err != nil {
						return nil, err
					}
					arena = append(arena, ID{Agent: ids.names[ai], Seq: seq})
				}
			}
			if nPar > 0 {
				run.Parents = arena[from:len(arena):len(arena)]
			}
			excAt = n
			if entriesParsed++; entriesParsed < nExc {
				step, err := parents.count(n, "parent entry index")
				if err != nil {
					return nil, err
				}
				if step == 0 {
					return nil, fmt.Errorf("colenc: non-increasing parents entry index")
				}
				if excAt = i + step; excAt >= n {
					return nil, fmt.Errorf("colenc: parents entry index %d out of range", excAt)
				}
			}
		} else {
			parentsRoom(1)
			arena = append(arena, last)
			run.Parents = arena[len(arena)-1 : len(arena) : len(arena)]
		}

		end := min(arEnd, opEnd, excAt)
		run.Run = op
		run.Pos += (i - opAt) * int(op.Dir)
		run.Len = end - i
		if op.Kind == oplog.Insert {
			run.Content = content[used : used+run.Len : used+run.Len]
			used += run.Len
		} else if run.Len == 1 {
			run.Dir = 0
		}
		runs = append(runs, run)
		last = run.last()
		i = end
	}
	if !ops.done() {
		return nil, fmt.Errorf("colenc: trailing bytes in ops column")
	}
	if used != len(content) {
		return nil, fmt.Errorf("colenc: trailing bytes in content column")
	}
	if !parents.done() {
		return nil, fmt.Errorf("colenc: trailing bytes in parents column")
	}
	return runs, nil
}
