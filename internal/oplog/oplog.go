// Package oplog stores the operations attached to event-graph events: one
// insert or delete per event, run-length encoded (paper §2, §3.8). The log
// owns a causal.Graph; events are appended to both in lock step so an
// event's LV indexes both its DAG node and its operation.
//
// Run-length encoding exploits typical editing patterns: runs of
// consecutive insertions ("typing"), forward deletion runs (holding
// delete), and backward deletion runs (holding backspace) each compress
// into a single span.
//
// The inserted characters are one append-only arena of UTF-8, in LV
// order, counted in characters: a span records where its characters start
// in both counts, and the byte offset of every 64th character (a mark)
// finds one inside a span with a scan of at most 64.
package oplog

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"unicode/utf8"
	"unsafe"

	"egwalker/internal/causal"
	"egwalker/internal/utf8x"
)

// Kind discriminates the two text operations.
type Kind uint8

const (
	Insert Kind = iota
	Delete
)

func (k Kind) String() string {
	if k == Insert {
		return "ins"
	}
	return "del"
}

// Op is a single-character operation as originally generated: insert
// Content at index Pos, or delete the character at index Pos. Indexes are
// interpreted in the document state defined by the event's parents (§2.3).
type Op struct {
	Kind    Kind
	Pos     int
	Content rune // only for Insert
}

// span is a run-length encoded run of operations covering consecutive
// LVs: a fixed-size record of 20 bytes with no pointer in it. It covers
// the LVs from start to where the next span starts (the end of the log
// for the last one).
//
// For an insert span, op i has position pos+i and its character is
// character content+i of the arena, its UTF-8 from byte text on up to the
// next span's (humans type forwards; a non-conforming insert starts a new
// span). For a delete span, op i has position pos+i*dir
// where dir is +0 for forward deletes (repeatedly deleting at the same
// index consumes a run)
// ... see posAt for the exact rules.
//
// Positions arrive from peers and are held to 32 bits, signed, by
// CheckPos. LVs and content offsets count this replica's own events — a
// character is an event — and the graph holds those to 32 bits, as the
// arena's bytes are.
type span struct {
	pos     int32
	start   uint32 // LV of the first op
	content uint32 // characters of the arena before the span's
	text    uint32 // and bytes
	kind    Kind
	// dir is the per-op position delta: inserts +1; forward deletes 0;
	// backspace deletes -1.
	dir int8
}

func (s *span) posAt(i int) int { return int(s.pos) + i*int(s.dir) }

const markEvery = 64 // characters from one mark of the arena to the next

// Log is an append-only operation log bound to a causal graph.
type Log struct {
	Graph *causal.Graph
	spans []span
	// text holds every insert span's characters, in LV order, as UTF-8:
	// append-only, so a slice of it handed out stays valid and unchanged.
	text     []byte
	chars    int           // characters in text
	marks    []uint32      // where character k*markEvery starts in text
	invalid  []invalidRune // in LV order
	searches uint64        // binary searches for the span holding an LV
}

// invalidRune is the character of the insert at lv: no Unicode scalar.
type invalidRune struct {
	lv causal.LV
	c  rune
}

// New returns an empty log with a fresh graph.
func New() *Log {
	return &Log{Graph: causal.New()}
}

// Len returns the number of operations (== events) in the log.
func (l *Log) Len() int { return l.Graph.Len() }

// Frontier returns the current version of the log.
func (l *Log) Frontier() causal.Frontier { return l.Graph.Frontier() }

// end returns the LV span i ends before.
func (l *Log) end(i int) causal.LV {
	if i+1 < len(l.spans) {
		return causal.LV(l.spans[i+1].start)
	}
	return causal.LV(l.Graph.Len())
}

// Run is a run of operations as the log stores them: Len operations of
// one kind whose positions step by Dir from Pos — +1 for inserts (typing
// forwards), 0 for forward deletes (each deletes at the same index), -1
// for backspaces. A lone delete has Dir 0. Content holds an insert run's
// Len characters.
type Run struct {
	Kind    Kind
	Pos     int
	Dir     int8
	Len     int
	Content []rune
}

// Unit returns the run that is the single operation at pos, an insert's
// character left out.
func Unit(insert bool, pos int) Run {
	if insert {
		return Run{Kind: Insert, Pos: pos, Dir: 1, Len: 1}
	}
	return Run{Kind: Delete, Pos: pos, Len: 1}
}

// Add appends ops as a batch of events by agent with the given parents.
// The agent's sequence numbers are assigned automatically. It returns the
// LV span covering the new events.
func (l *Log) Add(agent string, parents []causal.LV, ops []Op) (causal.Span, error) {
	return l.AddRemote(agent, l.Graph.SeqEnd(agent), parents, ops)
}

// AddRemote appends ops as events (agent, seq), (agent, seq+1), ... with
// the given parents for the first op; later ops are each parented on their
// predecessor.
func (l *Log) AddRemote(agent string, seq int, parents []causal.LV, ops []Op) (causal.Span, error) {
	if len(ops) == 0 {
		return causal.Span{}, fmt.Errorf("oplog: empty op batch")
	}
	for _, op := range ops {
		if err := Unit(op.Kind == Insert, op.Pos).CheckPos(); err != nil {
			return causal.Span{}, err
		}
	}
	start, err := l.Graph.Add(agent, seq, len(ops), parents)
	if err != nil {
		return causal.Span{}, err
	}
	var c [1]rune
	for i, op := range ops {
		r := Unit(op.Kind == Insert, op.Pos)
		if op.Kind == Insert {
			c[0] = op.Content
			r.Content = c[:]
		}
		l.appendRun(start+causal.LV(i), r)
	}
	return causal.Span{Start: start, End: start + causal.LV(len(ops))}, nil
}

// AddRun appends r as events (agent, seq), (agent, seq+1), ... with the
// given parents for the first; later events are each parented on their
// predecessor. It costs one graph append and one span append however
// long the run is, and builds the same log as AddRemote with the run's
// operations one by one. r.Content is copied.
func (l *Log) AddRun(agent string, seq int, parents []causal.LV, r Run) (causal.Span, error) {
	if err := r.check(); err != nil {
		return causal.Span{}, err
	}
	start, err := l.Graph.Add(agent, seq, r.Len, parents)
	if err != nil {
		return causal.Span{}, err
	}
	l.appendRun(start, r)
	return causal.Span{Start: start, End: start + causal.LV(r.Len)}, nil
}

// AddRunNum is AddRun for a caller that holds the agent's number, or -1
// for an agent the graph has not met, and each parent's entry
// (causal.Graph.AddNum): a merge that has looked them up already, and
// asks the graph for neither again.
func (l *Log) AddRunNum(agent string, aid, seq int, parents []causal.Ref, r Run) (causal.Span, error) {
	if err := r.check(); err != nil {
		return causal.Span{}, err
	}
	start, err := l.Graph.AddNum(agent, aid, seq, r.Len, parents)
	if err != nil {
		return causal.Span{}, err
	}
	l.appendRun(start, r)
	return causal.Span{Start: start, End: start + causal.LV(r.Len)}, nil
}

// AppendRun is AddRun for a replica's own edit: r becomes the next events
// of agent aid, on top of everything the log holds (causal.Graph.Append).
func (l *Log) AppendRun(aid int, r Run) (causal.Span, error) {
	if err := r.check(); err != nil {
		return causal.Span{}, err
	}
	start, err := l.Graph.Append(aid, r.Len)
	if err != nil {
		return causal.Span{}, err
	}
	l.appendRun(start, r)
	return causal.Span{Start: start, End: start + causal.LV(r.Len)}, nil
}

// AppendText is AppendRun for the insertion of text at pos, typed: its
// UTF-8 goes into the arena as it is, a byte that is not UTF-8 as U+FFFD.
func (l *Log) AppendText(aid int, pos int, text string) (causal.Span, error) {
	if !utf8.ValidString(text) {
		text = string([]rune(text))
	}
	n := utf8.RuneCountInString(text)
	if err := (Run{Kind: Insert, Pos: pos, Dir: 1, Len: n}).CheckPos(); err != nil {
		return causal.Span{}, err
	}
	start, err := l.Graph.Append(aid, n)
	if err != nil {
		return causal.Span{}, err
	}
	l.PushRun(start, Run{Kind: Insert, Pos: pos, Dir: 1, Len: n}, l.chars, len(l.text))
	l.grow(append(l.text, text...), n)
	return causal.Span{Start: start, End: start + causal.LV(n)}, nil
}

// check rejects a run that is empty, whose content is not its length or
// whose positions the log cannot hold.
func (r *Run) check() error {
	if r.Len < 1 || (r.Kind == Insert && len(r.Content) != r.Len) {
		return fmt.Errorf("oplog: run of %d ops with %d characters", r.Len, len(r.Content))
	}
	if err := r.CheckPos(); err != nil {
		return fmt.Errorf("%w: %s run of %d at %d", err, r.Kind, r.Len, r.Pos)
	}
	return nil
}

// MaxPos bounds positions as the file format does (docs/FORMAT.md): an
// insert run may end at MaxPos, a delete be at it, neither past it.
const MaxPos = math.MaxInt32

// errPos is CheckPos' error, one value so that the check costs no call; a
// caller says which run.
var errPos = fmt.Errorf("oplog: a position passes the limit of %d", MaxPos)

// CheckPos returns an error if one of r's positions passes MaxPos, or an
// insert run ends past it. A negative position, which no file holds
// either, the log takes down to -MaxPos-1, for the text to refuse.
func (r Run) CheckPos() error {
	// The first position and the end (past an insert's last character, at
	// a delete's last) must lie in [-MaxPos-1, MaxPos]: shifted up by
	// MaxPos+1, in [0, 2*MaxPos+1] as a uint, outside which a position
	// near the ends of int wraps too.
	end := r.Pos + (r.Len-1)*int(r.Dir)
	if r.Kind == Insert {
		end = r.Pos + r.Len
	}
	if uint(r.Pos+MaxPos+1) > 2*MaxPos+1 || uint(end+MaxPos+1) > 2*MaxPos+1 {
		return errPos
	}
	return nil
}

// Extend grows r by the leading operations of next that continue its
// pattern — the same kind, at the positions r's direction predicts — and
// returns how many it took. A lone delete takes its direction from the
// operation that follows it, and a run in another direction still gives
// up its first operation when that one sits where r expects its next.
// Extending runs greedily this way partitions a sequence of operations
// the same way whatever runs it arrives in. Content is left alone.
func (r *Run) Extend(next Run) int {
	if r.Kind != next.Kind {
		return 0
	}
	take := next.Len
	if r.Kind == Insert {
		if next.Pos != r.Pos+r.Len {
			return 0
		}
	} else {
		dir := r.Dir
		if r.Len == 1 {
			switch next.Pos {
			case r.Pos:
				dir = 0
			case r.Pos - 1:
				dir = -1
			default:
				return 0
			}
		} else if next.Pos != r.Pos+r.Len*int(r.Dir) {
			return 0
		}
		if next.Len > 1 && next.Dir != dir {
			take = 1
		}
		r.Dir = dir
	}
	r.Len += take
	return take
}

// From returns r without its first k operations.
func (r Run) From(k int) Run {
	r.Pos += k * int(r.Dir)
	r.Len -= k
	if r.Kind == Insert {
		r.Content = r.Content[k:]
	} else if r.Len == 1 {
		r.Dir = 0
	}
	return r
}

// appendRun pushes the run r starting at lv, the end of the log so far.
// The last span's characters end the arena, so an insert that extends it
// appends to both.
func (l *Log) appendRun(lv causal.LV, r Run) {
	l.PushRun(lv, r, l.chars, len(l.text))
	if r.Kind != Insert {
		return
	}
	text := slices.Grow(l.text, len(r.Content))
	for k, c := range r.Content {
		if uint32(c) >= utf8.RuneSelf && !utf8.ValidRune(c) {
			l.invalid = append(l.invalid, invalidRune{lv + causal.LV(k), c})
		}
		text = utf8.AppendRune(text, c) // U+FFFD if not valid
	}
	l.grow(text, len(r.Content))
}

// grow makes text, the arena and n more characters, the arena. Marks in
// ASCII, as many bytes as characters, are where they fall; others are
// found by a skip.
func (l *Log) grow(text []byte, n int) {
	c, at := l.chars, len(l.text)
	ascii := len(text)-at == n
	l.text, l.chars = text, c+n
	for next := (c + markEvery - 1) / markEvery * markEvery; next < l.chars; next += markEvery {
		if ascii {
			at += next - c
		} else {
			at += utf8x.Skip(l.text[at:], next-c)
		}
		c = next
		l.marks = append(l.marks, uint32(at))
	}
}

// byteAt returns where character c, one the arena holds, starts: its
// block's mark, plus c's place in the block when the block is ASCII (as
// many bytes as characters), else plus a scan of the block.
func (l *Log) byteAt(c int) int {
	k := c / markEvery
	from, to, n := int(l.marks[k]), len(l.text), l.chars-k*markEvery
	if k+1 < len(l.marks) {
		to, n = int(l.marks[k+1]), markEvery
	}
	if to-from == n {
		return from + c%markEvery
	}
	return from + utf8x.Skip(l.text[from:to], c%markEvery)
}

// textOf returns the UTF-8 of characters [from, to) of insert span i: from
// its offsets, c, the marks, or back from its end for a burst typed on.
func (l *Log) textOf(i, from, to int, c *Cursor) []byte {
	s := &l.spans[i]
	a, b := int(s.text), len(l.text)
	if i+1 < len(l.spans) {
		b = int(l.spans[i+1].text)
	}
	switch n := int(l.end(i)) - int(s.start); {
	case b-a == n: // ASCII
		a, b = a+from, a+to
	case to == n && n-from <= 8:
		a = utf8x.Back(l.text[:b], n-from)
	default:
		if from > 0 && c.char == int(s.content)+from {
			a = c.byte
		} else if from > 0 {
			a = l.byteAt(int(s.content) + from)
		}
		if to < n {
			b = l.byteAt(int(s.content) + to)
		}
	}
	c.char, c.byte = int(s.content)+to, b
	return l.text[a:b:b]
}

// PushRun appends the run r at lv, where the runs pushed so far end, as
// AddRun would less the graph's side and the characters: those of an
// insert are the arena's from character at, byte text, on, or about to be
// (r.Content is not read). An appender passes the arena's end; a loader,
// whose arena is adopted whole, the offsets it keeps as it walks the runs,
// so that nothing is looked up. It first extends the last span by as much
// of r as continues that span's pattern: the spans are those that pushing
// the operations one at a time would build.
func (l *Log) PushRun(lv causal.LV, r Run, at, text int) {
	if n := len(l.spans); n > 0 {
		s := &l.spans[n-1]
		head := Run{Kind: s.kind, Pos: int(s.pos), Dir: s.dir, Len: int(lv) - int(s.start)}
		if took := head.Extend(r); took > 0 {
			s.dir = head.Dir
			if took == r.Len {
				return
			}
			lv += causal.LV(took)
			r = r.From(took) // a delete run: an insert is taken whole or not at all
		}
	}
	s := span{pos: int32(r.Pos), start: uint32(lv), content: uint32(at), text: uint32(text), kind: r.Kind}
	if r.Kind == Insert {
		s.dir = 1
	} else if r.Len > 1 {
		s.dir = r.Dir
	}
	l.spans = append(l.spans, s)
}

// Adopt makes text — the valid UTF-8 of every character a saved history
// inserts, in LV order — the arena of the empty log l, as it stands and
// without a copy, and returns how many characters it holds. The history's
// runs follow through PushRun and its events go into l.Graph, both the
// caller's to do: the log is whole again once the two cover the same LVs
// and the runs account for every character.
func (l *Log) Adopt(text []byte) int {
	if len(l.spans) > 0 || len(l.text) > 0 {
		panic("oplog: Adopt on a log that is not empty")
	}
	n := utf8x.Count(text)
	l.marks = make([]uint32, 0, (n+markEvery-1)/markEvery)
	l.grow(text, n)
	return n
}

// Reserve makes room for spans more spans and chars more inserted
// characters, so that appending them allocates nothing if they are ASCII
// (the graph's side is causal.Graph.Reserve). A loader reserves the spans it has counted and
// leaves no slack; a merge reserves the characters of the batch it was
// handed, so that the arena moves at most once, where appending run by
// run would move it at every step of its growth and leave each old copy
// behind as garbage.
func (l *Log) Reserve(spans, chars int) {
	l.spans = slices.Grow(l.spans, spans)
	l.text = slices.Grow(l.text, chars)
	l.marks = slices.Grow(l.marks, chars/markEvery+1)
}

// AddInsert appends an insertion of text at pos (a run of single-character
// insert events at consecutive positions).
func (l *Log) AddInsert(agent string, parents []causal.LV, pos int, text string) (causal.Span, error) {
	runes := []rune(text)
	return l.AddRun(agent, l.Graph.SeqEnd(agent), parents, Run{Kind: Insert, Pos: pos, Dir: 1, Len: len(runes), Content: runes})
}

// AddDelete appends a forward deletion of count characters starting at pos
// (a run of delete events all at index pos).
func (l *Log) AddDelete(agent string, parents []causal.LV, pos, count int) (causal.Span, error) {
	return l.AddRun(agent, l.Graph.SeqEnd(agent), parents, Run{Kind: Delete, Pos: pos, Len: count})
}

// spanIdxFor locates the storage span containing lv by binary search.
func (l *Log) spanIdxFor(lv causal.LV) int {
	if lv < 0 || int(lv) >= l.Len() {
		panic(fmt.Sprintf("oplog: LV %d out of range", lv))
	}
	l.searches++
	return l.spanIdxIn(0, len(l.spans), lv)
}

// spanIdxIn locates the storage span containing lv, which is an event of
// the log, between spans lo and hi: spans[lo] starts at or before lv and
// spans[hi] after it, taking spans[len(spans)] to start at the end of the
// log.
func (l *Log) spanIdxIn(lo, hi int, lv causal.LV) int {
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if causal.LV(l.spans[mid].start) <= lv {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Cursor is a place in a log that a caller keeps between walks of its
// runs: a walk finds its first span by looking outwards from where the
// last walk with the same Cursor stopped, in steps that double, so that
// what it costs grows with the logarithm of the distance between the two
// and not of the log — nothing, span or byte (char and byte), when it goes
// on where the last one stopped. The zero Cursor is valid for any log.
type Cursor struct{ span, char, byte int }

// Last returns a Cursor at the log's last span, where a walk of its newest
// events starts.
func (l *Log) Last() Cursor { return Cursor{span: len(l.spans)} }

// seek returns the index of the span holding lv, an event of the log,
// looking outwards from where c points.
func (l *Log) seek(c *Cursor, lv causal.LV) int {
	if lv < 0 || int(lv) >= l.Len() {
		panic(fmt.Sprintf("oplog: LV %d out of range", lv))
	}
	n := len(l.spans)
	at := min(c.span, n-1)
	if causal.LV(l.spans[at].start) <= lv {
		lo, hi := at, at+1
		for step := 1; hi < n && causal.LV(l.spans[hi].start) <= lv; step *= 2 {
			lo, hi = hi, min(hi+step, n)
		}
		return l.spanIdxIn(lo, hi, lv)
	}
	lo, hi := at-1, at
	for step := 1; causal.LV(l.spans[lo].start) > lv; step *= 2 {
		lo, hi = max(lo-step, 0), lo
	}
	return l.spanIdxIn(lo, hi, lv)
}

// opIn returns the operation i places into span idx.
func (l *Log) opIn(idx, i int) Op {
	s := &l.spans[idx]
	op := Op{Kind: s.kind, Pos: s.posAt(i)}
	if s.kind == Insert {
		var c [1]rune
		op.Content = l.AppendRunes(c[:0], causal.LV(s.start)+causal.LV(i), l.textOf(idx, i, i+1, new(Cursor)))[0]
	}
	return op
}

// OpAt returns the operation attached to the event at lv.
func (l *Log) OpAt(lv causal.LV) Op {
	idx := l.spanIdxFor(lv)
	return l.opIn(idx, int(lv)-int(l.spans[idx].start))
}

// AppendRunes appends to dst the characters of text, the UTF-8 EachRunFrom
// gave for the inserts from lv on, as the inserts carried them.
func (l *Log) AppendRunes(dst []rune, lv causal.LV, text []byte) []rune {
	from := len(dst)
	for len(text) > 0 {
		c, n := rune(text[0]), 1
		if c >= utf8.RuneSelf {
			c, n = utf8.DecodeRune(text)
		}
		dst, text = append(dst, c), text[n:]
	}
	for at, c, ok := l.Invalid(lv); ok && int(at-lv) < len(dst)-from; at, c, ok = l.Invalid(at + 1) {
		dst[from+int(at-lv)] = c
	}
	return dst
}

// Invalid returns the first insert from lv on whose character, U+FFFD in
// the arena, is no Unicode scalar value (-1, a surrogate, > MaxRune).
func (l *Log) Invalid(lv causal.LV) (causal.LV, rune, bool) {
	i := sort.Search(len(l.invalid), func(k int) bool { return l.invalid[k].lv >= lv })
	if i == len(l.invalid) {
		return 0, 0, false
	}
	return l.invalid[i].lv, l.invalid[i].c, true
}

// EachOp calls fn for every op in the LV range [sp.Start, sp.End) in
// order. Iteration stops early if fn returns false.
func (l *Log) EachOp(sp causal.Span, fn func(lv causal.LV, op Op) bool) {
	if sp.Len() <= 0 {
		return
	}
	for idx := l.spanIdxFor(sp.Start); idx < len(l.spans); idx++ {
		s := &l.spans[idx]
		end := min(l.end(idx), sp.End)
		for lv := max(causal.LV(s.start), sp.Start); lv < end; lv++ {
			if !fn(lv, l.opIn(idx, int(lv)-int(s.start))) {
				return
			}
		}
		if end == sp.End {
			return
		}
	}
}

// EachRun calls fn for every maximal run of ops within [sp.Start, sp.End)
// that share one storage span (same kind and position pattern). fn gets
// the LV range, the kind, the position of the first op, the per-op
// position delta, and (for inserts) the characters' UTF-8, a slice of the
// log's arena that must not be modified (AppendRunes decodes it).
func (l *Log) EachRun(sp causal.Span, fn func(lvs causal.Span, kind Kind, pos int, dir int8, text []byte) bool) {
	var c Cursor
	if sp.Len() > 0 {
		c.span = l.spanIdxFor(sp.Start)
	}
	l.EachRunFrom(&c, sp, fn)
}

// EachRunFrom is EachRun for a caller that walks the log forwards in
// pieces: it looks for sp.Start where c points and leaves c at the span
// it stopped in.
func (l *Log) EachRunFrom(c *Cursor, sp causal.Span, fn func(lvs causal.Span, kind Kind, pos int, dir int8, text []byte) bool) {
	if sp.Len() <= 0 {
		return
	}
	idx := l.seek(c, sp.Start)
	for ; idx < len(l.spans); idx++ {
		s := &l.spans[idx]
		start, end := max(causal.LV(s.start), sp.Start), min(l.end(idx), sp.End)
		off := int(start) - int(s.start)
		var text []byte
		if s.kind == Insert {
			text = l.textOf(idx, off, int(end)-int(s.start), c)
		}
		if !fn(causal.Span{Start: start, End: end}, s.kind, s.posAt(off), s.dir, text) || end == sp.End {
			break
		}
	}
	c.span = idx
}

// EachKindFrom is EachRunFrom for a walk that needs only each run's LVs
// and kind, not its characters: the tracker moving runs of events. With
// desc set it yields the runs last first, as a retreat takes them.
// Iteration stops early if fn returns false.
func (l *Log) EachKindFrom(c *Cursor, sp causal.Span, desc bool, fn func(lvs causal.Span, kind Kind) bool) {
	if sp.Len() <= 0 {
		return
	}
	first, step := sp.Start, 1
	if desc {
		first, step = sp.End-1, -1
	}
	idx := l.seek(c, first)
	for ; idx < len(l.spans); idx += step {
		lvs := causal.Span{Start: max(causal.LV(l.spans[idx].start), sp.Start), End: min(l.end(idx), sp.End)}
		if !fn(lvs, l.spans[idx].kind) || desc && lvs.Start == sp.Start || !desc && lvs.End == sp.End {
			break
		}
	}
	c.span = idx
}

// RunsFrom counts the runs EachRunFrom yields from lv on, leaving c at the first.
func (l *Log) RunsFrom(c *Cursor, lv causal.LV) int {
	c.span = l.seek(c, lv)
	return len(l.spans) - c.span
}

// Content returns the characters of every insert span back to back, in LV
// order, as UTF-8 — the log's arena, capacity capped, which must not be
// written: the content column of a saved file and the size benchmarks'
// "raw concatenated text" lower bound (Fig 11).
func (l *Log) Content() []byte { return l.text[:len(l.text):len(l.text)] }

// SpanCount returns the number of run-length storage spans (for tests and
// stats).
func (l *Log) SpanCount() int { return len(l.spans) }

// Bytes returns the heap the log holds, the graph's included, from the
// capacities of its arrays.
func (l *Log) Bytes() int {
	return cap(l.spans)*int(unsafe.Sizeof(span{})) + l.ContentBytes() + l.Graph.Bytes()
}

// ContentBytes returns the part of Bytes that holds the inserted
// characters: the arena, its marks and the list of invalid characters.
func (l *Log) ContentBytes() int {
	return cap(l.text) + cap(l.marks)*4 + cap(l.invalid)*int(unsafe.Sizeof(invalidRune{}))
}

// Searches returns the number of binary searches the log has made for the
// span holding an LV; a forward walk through a Cursor makes none after
// its first.
func (l *Log) Searches() uint64 { return l.searches }
