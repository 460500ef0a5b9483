package colenc

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"unicode/utf8"

	"egwalker/internal/causal"
	"egwalker/internal/oplog"
)

// MaxBatchEvents caps the event count accepted from a frame that arrives
// as a batch: a network frame, a WAL block. Run-length encoding means a
// small payload can describe many events (a held backspace over a huge
// document is a handful of bytes), so the bound cannot be payload-
// proportional; this value covers every full-scale trace with an order of
// magnitude to spare while keeping a hostile frame's decode allocation in
// the same ballpark as the legacy codec's worst case.
const MaxBatchEvents = 1 << 24

// reader consumes varints and byte runs from a slice. Readers are held by
// value: one per column, none on the heap.
type reader struct {
	buf []byte
	off int
}

var errVarintOverflow = errors.New("colenc: varint overflows a 64-bit integer")

func (r *reader) uvarint() (uint64, error) {
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		r.off++
		return uint64(r.buf[r.off-1]), nil
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return 0, errVarintOverflow
	}
	r.off += n
	return v, nil
}

// count reads a uvarint that must fit in an int and be ≤ limit. Most are
// one byte: that case is read here, without the call.
func (r *reader) count(limit int, what string) (int, error) {
	var v uint64
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		v = uint64(r.buf[r.off])
		r.off++
	} else {
		var err error
		if v, err = r.uvarint(); err != nil {
			return 0, err
		}
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

// errPrunedBatch refuses a pruned frame on a batch path.
var errPrunedBatch = errors.New("colenc: a pruned frame is a whole document, not a batch")

// openFrame validates magic, flags — known being those the caller reads —
// and checksum, returning a reader over the body.
func openFrame(data []byte, known byte) (reader, byte, error) {
	if !Sniff(data) {
		return reader{}, 0, ErrBadMagic
	}
	if len(data) < len(Magic)+5 {
		return reader{}, 0, fmt.Errorf("colenc: truncated header: %w", io.ErrUnexpectedEOF)
	}
	flags := data[4]
	if flags&^known == FlagPruned {
		return reader{}, 0, errPrunedBatch
	}
	if flags&^known != 0 {
		return reader{}, 0, fmt.Errorf("colenc: unsupported flags %#x", flags)
	}
	wantCRC := binary.LittleEndian.Uint32(data[5:9])
	body := data[9:]
	if crc32.Checksum(body, crcTable) != wantCRC {
		return reader{}, 0, ErrChecksum
	}
	return reader{buf: body}, flags, nil
}

// maxRunLen is the allocation-defense multiplier: one run (≥ 3 encoded
// bytes) may legitimately cover many events, but letting the event
// count exceed body-bytes × maxRunLen would allow a tiny frame to
// declare an absurd count. 2^16 matches the largest batch the bounded
// writer produces (egwalker.MarshalBatches splits at 2^16 events).
const maxRunLen = 1 << 16

// frame is a frame taken apart: envelope checked, columns cut, nothing
// inside a column read yet.
type frame struct {
	flags                         byte
	n                             int // declared event count
	agents, ops, parents, content reader
	doc                           []byte // cached-document column, with FlagCachedDoc
}

// splitFrame is the preamble of every decode: magic, flags (known),
// checksum, the event count against maxEvents, and the column framing.
func splitFrame(data []byte, known byte, maxEvents int) (frame, error) {
	r, flags, err := openFrame(data, known)
	if err != nil {
		return frame{}, err
	}
	body := r.buf
	// One run (a few bytes) may cover up to maxRunLen events, so the
	// body length times that factor bounds any honest count.
	limit := maxEvents
	if cap := len(body) * maxRunLen; cap < limit {
		limit = cap
	}
	f := frame{flags: flags}
	if f.n, err = r.count(limit, "event count"); err != nil {
		return frame{}, err
	}
	col := func() (b []byte) { // the next length-prefixed column; err is sticky
		var ln int
		if err == nil {
			ln, err = r.count(len(body), "column length")
		}
		if err == nil {
			b, err = r.bytes(ln)
		}
		return b
	}
	f.agents.buf, f.ops.buf, f.parents.buf, f.content.buf = col(), col(), col(), col()
	if flags&FlagCachedDoc != 0 {
		f.doc = col()
	}
	if err != nil {
		return frame{}, err
	}
	if !r.done() {
		return frame{}, fmt.Errorf("colenc: %d trailing bytes after last column", len(body)-r.off)
	}
	return f, nil
}

// Decoder decodes frames one after another and keeps, between them, the
// memory a decode would otherwise allocate: the agent table, the runs,
// the arena their Parents are cut from and the content, and the agent
// names it has seen (the same few recur in every frame of a document), so
// a small frame decodes with no allocation at all. What a call returns
// is valid until the next call on the same Decoder; a caller that keeps
// anything copies it out (agent names excepted: strings are immutable).
// The zero Decoder is ready for use; the package-level DecodeRuns and
// Inspect decode through one, once.
//
// Between frames a Decoder holds at most keepElems elements of each
// array (4× that of content) and maxInterned names of at most
// maxInternName bytes — under 64 KiB in all: what a large frame grew is
// dropped before the next one, not pinned.
type Decoder struct {
	table    agentTable
	interned map[string]string // agent names seen in earlier frames
	runs     []Run
	parents  []ID // the latest chunk of the parents arena
	content  []rune
	idRuns   []IDRun

	out  DecodedRuns
	info BlockInfo
}

const (
	keepElems     = 256
	maxInterned   = 256
	maxInternName = 64
)

var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder borrows a Decoder from a process-wide pool; Put returns it.
func GetDecoder() *Decoder { return decoders.Get().(*Decoder) }

// Put hands a borrowed Decoder back. Nothing decoded through it may be
// in use any more.
func (d *Decoder) Put() {
	d.reset()
	decoders.Put(d)
}

// kept is s emptied for the next frame, or nil if it grew past max.
func kept[T any](s []T, max int) []T {
	if cap(s) > max {
		return nil
	}
	return s[:0]
}

// reset drops what the previous frame returned and any array it grew
// past its cap.
func (d *Decoder) reset() {
	d.out, d.info = DecodedRuns{}, BlockInfo{}
	d.table.names, d.table.runs = kept(d.table.names, keepElems), kept(d.table.runs, keepElems)
	d.runs, d.parents = kept(d.runs, keepElems), kept(d.parents, keepElems)
	d.content, d.idRuns = kept(d.content, 4*keepElems), kept(d.idRuns, keepElems)
}

// DecodeRuns is the package-level DecodeRuns on this Decoder's memory.
func (d *Decoder) DecodeRuns(data []byte, maxEvents int) (*DecodedRuns, error) {
	d.reset()
	f, err := splitFrame(data, batchFlags, maxEvents)
	if err != nil {
		return nil, err
	}
	if err := d.decodeAgents(&f.agents, f.n); err != nil {
		return nil, err
	}
	content, err := d.decodeContent(f.content.buf, f.flags&FlagCompressed != 0)
	if err != nil {
		return nil, err
	}
	runs, err := d.decodeRuns(&f.ops, &f.parents, content, f.n)
	if err != nil {
		return nil, err
	}
	d.out = DecodedRuns{Runs: runs, NumEvents: f.n, HasDoc: f.flags&FlagCachedDoc != 0}
	if d.out.HasDoc {
		d.out.Doc = string(f.doc)
	}
	return &d.out, nil
}

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

// name returns b as a string: the one handed out before, if the Decoder
// has seen the name.
func (d *Decoder) name(b []byte) string {
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxInternName {
		if d.interned == nil {
			d.interned = make(map[string]string)
		} else if len(d.interned) >= maxInterned {
			clear(d.interned)
		}
		d.interned[s] = s
	}
	return s
}

// decodeNames reads the name table that opens the agents column into
// d.table.names, leaving r at the runs.
func (d *Decoder) decodeNames(r *reader) error {
	t := &d.table
	nNames, err := r.count(len(r.buf), "agent name count")
	if err != nil {
		return err
	}
	t.names = slices.Grow(t.names, nNames)
	for i := 0; i < nNames; i++ {
		ln, err := r.count(maxAgentName, "agent name length")
		if err != nil {
			return err
		}
		b, err := r.bytes(ln)
		if err != nil {
			return err
		}
		t.names = append(t.names, d.name(b))
	}
	return nil
}

// agentsColumn steps through the runs of an agents column, after its name
// table.
type agentsColumn struct {
	r     *reader
	n     int // events the runs must cover
	names int // size of the name table
	left  int // runs not yet read
	at    int // events the runs read so far cover
}

// agentRuns opens the runs of the agents column r, whose name table has
// been read and holds names names, in a frame of n events.
func agentRuns(r *reader, names, n int) (agentsColumn, error) {
	left, err := r.count(len(r.buf)+1, "agent run count")
	return agentsColumn{r: r, n: n, names: names, left: left}, err
}

// next reads the column's next run.
func (c *agentsColumn) next() (agentRun, error) {
	ai, err := c.r.count(math.MaxInt32, "agent index")
	if err != nil {
		return agentRun{}, err
	}
	if ai >= c.names {
		return agentRun{}, fmt.Errorf("colenc: agent index %d out of range (%d names)", ai, c.names)
	}
	seq, err := c.r.count(causal.MaxSeq, "agent seq")
	if err != nil {
		return agentRun{}, err
	}
	ln, err := c.r.count(c.n-c.at, "agent run length")
	if err != nil {
		return agentRun{}, err
	}
	if ln == 0 {
		return agentRun{}, fmt.Errorf("colenc: empty agent run")
	}
	if seq+ln > causal.MaxSeq {
		return agentRun{}, fmt.Errorf("colenc: agent seq overflow")
	}
	run := agentRun{ai, seq, ln, c.at}
	c.at += ln
	c.left--
	return run, nil
}

// end checks the column once its runs are read — as many of them as
// cover n events: a run past those could only be empty or too long.
func (c *agentsColumn) end() error {
	if c.left > 0 || c.at != c.n {
		return fmt.Errorf("colenc: agent runs cover %d events, want %d", c.at, c.n)
	}
	if !c.r.done() {
		return fmt.Errorf("colenc: trailing bytes in agents column")
	}
	return nil
}

// decodeAgents reads the agents column into d.table.
func (d *Decoder) decodeAgents(r *reader, n int) error {
	if err := d.decodeNames(r); err != nil {
		return err
	}
	t := &d.table
	c, err := agentRuns(r, len(t.names), n)
	if err != nil {
		return err
	}
	for c.left > 0 {
		run, err := c.next()
		if err != nil {
			return err
		}
		t.runs = append(t.runs, run)
	}
	return c.end()
}

// maxDecompressed bounds the inflated content column against
// decompression bombs; it matches the frame/delta payload cap.
const maxDecompressed = 16 << 20

// inflate returns what a compressed content column inflates to.
func inflate(buf []byte) ([]byte, error) {
	raw, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(buf)), maxDecompressed))
	if err != nil {
		return nil, fmt.Errorf("colenc: decompress content: %w", err)
	}
	if len(raw) >= maxDecompressed {
		return nil, fmt.Errorf("colenc: decompressed content exceeds %d bytes", maxDecompressed)
	}
	return raw, nil
}

// appendRunes appends the characters of a content column's UTF-8 to dst.
func appendRunes(dst []rune, buf []byte) ([]rune, error) {
	for off := 0; off < len(buf); {
		if b := buf[off]; b < utf8.RuneSelf {
			dst = append(dst, rune(b))
			off++
			continue
		}
		ru, size := utf8.DecodeRune(buf[off:])
		if ru == utf8.RuneError && size == 1 {
			return nil, fmt.Errorf("colenc: invalid UTF-8 in content column")
		}
		dst = append(dst, ru)
		off += size
	}
	return dst, nil
}

// decodeContent returns the content column's characters.
func (d *Decoder) decodeContent(buf []byte, compressed bool) ([]rune, error) {
	var err error
	if compressed {
		if buf, err = inflate(buf); err != nil {
			return nil, err
		}
	}
	content := d.content
	if cap(content) < len(buf) { // a character is at least a byte: count only when it matters
		content = make([]rune, 0, utf8.RuneCount(buf))
	}
	if content, err = appendRunes(content, buf); err != nil {
		return nil, err
	}
	d.content = content
	return content, nil
}

// opRun reads the next run of an ops column into op — its characters left
// out — of at most left events, chars being how many characters the
// content column has for it. A lone delete gets no direction, whatever its
// tag.
func (r *reader) opRun(op *oplog.Run, left, chars int) error {
	tag, err := r.uvarint()
	if err != nil {
		return err
	}
	runLen, err := r.count(left, "op run length")
	if err != nil {
		return err
	}
	if runLen == 0 {
		return fmt.Errorf("colenc: empty op run")
	}
	pos, err := r.count(oplog.MaxPos, "op position")
	if err != nil {
		return err
	}
	*op = oplog.Run{Kind: oplog.Delete, Pos: pos, Len: runLen}
	switch tag {
	case tagInsert:
		if pos+runLen > oplog.MaxPos {
			return fmt.Errorf("colenc: insert run position overflow")
		}
		if runLen > chars {
			return fmt.Errorf("colenc: content column exhausted")
		}
		op.Kind, op.Dir = oplog.Insert, 1
	case tagDeleteBack:
		if runLen-1 > pos {
			return fmt.Errorf("colenc: backspace run of %d underflows position %d", runLen, pos)
		}
		if runLen > 1 {
			op.Dir = -1
		}
	case tagDeleteFwd:
	default:
		return fmt.Errorf("colenc: bad op tag %d", tag)
	}
	return nil
}

// parentsColumn steps through the entries of a parents column: the events
// whose parents are written out. Every other event has the default parent
// list, the event immediately before it.
type parentsColumn struct {
	r     *reader
	n     int // events in the frame
	names int // size of the agents column's name table
	left  int // entries not yet finished
	at    int // event index of the entry the column stands at; n: none left
}

// parentEntries opens the parents column r of a frame of n events whose
// name table holds names names, at the entry for event 0.
func parentEntries(r *reader, names, n int) (parentsColumn, error) {
	c := parentsColumn{r: r, n: n, names: names, at: n}
	var err error
	if c.left, err = r.count(n, "parent entry count"); err != nil {
		return c, err
	}
	if n > 0 {
		if c.left == 0 {
			return c, fmt.Errorf("colenc: missing parents entry for event 0")
		}
		step, err := r.count(n, "parent entry index")
		if err != nil {
			return c, err
		}
		if step != 0 {
			return c, fmt.Errorf("colenc: first parents entry at %d, want 0", step)
		}
		c.at = 0
	}
	return c, nil
}

// count reads how many parent references the entry at c.at holds.
func (c *parentsColumn) count() (int, error) { return c.r.count(maxParents, "parent count") }

// ref reads one parent reference of the entry at c.at: the event back
// events before it when back > 0, else the event seq of the agent at
// index agent of the name table.
func (c *parentsColumn) ref() (back, agent, seq int, err error) {
	v, err := c.r.uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	if v&1 == 0 {
		b := v >> 1
		if b == 0 || b > uint64(c.at) {
			return 0, 0, 0, fmt.Errorf("colenc: bad parent back-reference %d at event %d", b, c.at)
		}
		return int(b), 0, 0, nil
	}
	ai := v >> 1
	if ai >= uint64(c.names) {
		return 0, 0, 0, fmt.Errorf("colenc: parent agent index %d out of range", ai)
	}
	seq, err = c.r.count(causal.MaxSeq, "parent seq")
	return 0, int(ai), seq, err
}

// skip passes over one parent reference of the entry at c.at, read only
// as far as its length: an (agent, seq) reference is two varints, a
// back-reference one, and the first's low bit says which.
func (c *parentsColumn) skip() error {
	v, err := c.r.uvarint()
	if err == nil && v&1 != 0 {
		_, err = c.r.uvarint()
	}
	return err
}

// next moves from the entry at c.at, its references read, to the one
// after it.
func (c *parentsColumn) next() error {
	i := c.at
	c.at = c.n
	if c.left--; c.left > 0 {
		step, err := c.r.count(c.n, "parent entry index")
		if err != nil {
			return err
		}
		if step == 0 {
			return fmt.Errorf("colenc: non-increasing parents entry index")
		}
		if c.at = i + step; c.at >= c.n {
			return fmt.Errorf("colenc: parents entry index %d out of range", c.at)
		}
	}
	return nil
}

// end checks the column once its entries are read.
func (c *parentsColumn) end() error {
	if !c.r.done() {
		return fmt.Errorf("colenc: trailing bytes in parents column")
	}
	return nil
}

// decodeRuns walks the agents, ops and parents columns in step and cuts
// a run wherever any of them does: at the end of an agent run, at the
// end of an op run, and before an event with an explicit parents entry.
func (d *Decoder) decodeRuns(ops, parents *reader, content []rune, n int) ([]Run, error) {
	ids := &d.table
	pc, err := parentEntries(parents, len(ids.names), n)
	if err != nil {
		return nil, err
	}

	// Grow lazily: a run-length format legitimately describes many
	// events in few bytes, so trust the count only as runs materialise.
	runs := d.runs
	// Every run's Parents is cut, capacity capped, from one arena, which
	// is chunked rather than moved when it fills up — the runs before
	// keep the chunks they point into. A chunk is twice the one before
	// (from 8 up to 4096), never as large as a count the frame claims,
	// and the latest one is where the next frame starts.
	arena := d.parents
	parentsRoom := func(n int) {
		if cap(arena)-len(arena) < n {
			arena = make([]ID, 0, max(n, min(max(2*cap(arena), 8), 4096)))
		}
	}
	var (
		ar          = -1 // current agent run
		arEnd       = 0  // event index it ends at
		op          oplog.Run
		opAt, opEnd = 0, 0 // event indexes the current op run covers
		used        = 0    // characters of content consumed
		last        ID     // of event i-1
	)
	for i := 0; i < n; {
		if i == arEnd {
			ar++
			arEnd += ids.runs[ar].n
		}
		if i == opEnd {
			if err := ops.opRun(&op, n-i, len(content)-used); err != nil {
				return nil, err
			}
			opAt, opEnd = i, i+op.Len
		}

		a := ids.runs[ar]
		run := Run{ID: ID{Agent: ids.names[a.agent], Seq: a.seq + (i - a.start)}}
		if i == pc.at {
			nPar, err := pc.count()
			if err != nil {
				return nil, err
			}
			parentsRoom(nPar)
			from := len(arena)
			for p := 0; p < nPar; p++ {
				back, ai, seq, err := pc.ref()
				if err != nil {
					return nil, err
				}
				if back > 0 {
					arena = append(arena, ids.idAt(i-back))
				} else {
					arena = append(arena, ID{Agent: ids.names[ai], Seq: seq})
				}
			}
			if nPar > 0 {
				run.Parents = arena[from:len(arena):len(arena)]
			}
			if err := pc.next(); err != nil {
				return nil, err
			}
		} else {
			parentsRoom(1)
			arena = append(arena, last)
			run.Parents = arena[len(arena)-1 : len(arena) : len(arena)]
		}

		end := min(arEnd, opEnd, pc.at)
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
	d.runs, d.parents = runs, arena
	if !ops.done() {
		return nil, fmt.Errorf("colenc: trailing bytes in ops column")
	}
	if used != len(content) {
		return nil, fmt.Errorf("colenc: trailing bytes in content column")
	}
	return runs, pc.end()
}
