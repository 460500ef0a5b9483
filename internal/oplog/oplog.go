// Package oplog stores the operations attached to event-graph events: one
// insert or delete per event, run-length encoded (paper §2, §3.8). The log
// owns a causal.Graph; events are appended to both in lock step so an
// event's LV indexes both its DAG node and its operation.
//
// Run-length encoding exploits typical editing patterns: runs of
// consecutive insertions ("typing"), forward deletion runs (holding
// delete), and backward deletion runs (holding backspace) each compress
// into a single span.
package oplog

import (
	"fmt"
	"slices"
	"unsafe"

	"egwalker/internal/causal"
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
// LVs: a fixed-size record with no pointer in it. It covers the LVs from
// start to where the next span starts (the end of the log for the last
// one).
//
// For an insert span, op i has position pos+i and its character is
// Log.content[content+i] (humans type forwards; a non-conforming insert
// starts a new span). For a delete span, op i has position pos+i*dir
// where dir is +0 for forward deletes (repeatedly deleting at the same
// index consumes a run)
// ... see posAt for the exact rules.
//
// Positions arrive from peers and stay int. LVs and content offsets count
// this replica's own events — a character is an event — and the graph
// holds those to 32 bits.
type span struct {
	pos     int
	start   uint32 // LV of the first op
	content uint32 // inserts only: where the span's characters start in Log.content
	kind    Kind
	// dir is the per-op position delta: inserts +1; forward deletes 0;
	// backspace deletes -1.
	dir int8
}

func (s *span) posAt(i int) int { return s.pos + i*int(s.dir) }

// Log is an append-only operation log bound to a causal graph.
type Log struct {
	Graph *causal.Graph
	spans []span
	// content holds the characters of every insert span back to back, in
	// LV order. It is append-only: a slice of it handed out stays valid,
	// and unchanged, whatever is added later.
	content  []rune
	searches uint64 // binary searches for the span holding an LV
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

// AppendRun is AddRun for a replica's own edit: r becomes the agent's
// next events, on top of everything the log holds (causal.Graph.Append).
func (l *Log) AppendRun(agent string, r Run) (causal.Span, error) {
	if err := r.check(); err != nil {
		return causal.Span{}, err
	}
	start, err := l.Graph.Append(agent, l.Graph.SeqEnd(agent), r.Len)
	if err != nil {
		return causal.Span{}, err
	}
	l.appendRun(start, r)
	return causal.Span{Start: start, End: start + causal.LV(r.Len)}, nil
}

// check rejects a run that is empty or whose content is not its length.
func (r *Run) check() error {
	if r.Len < 1 || (r.Kind == Insert && len(r.Content) != r.Len) {
		return fmt.Errorf("oplog: run of %d ops with %d characters", r.Len, len(r.Content))
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
	l.PushRun(lv, r, len(l.content))
	l.content = append(l.content, r.Content...)
}

// PushRun appends the run r at lv, where the runs pushed so far end, as
// AddRun would less the graph's side and the characters: those of an
// insert are the arena's from at on, or about to be (r.Content is not
// read). It first extends the last span by as much of r as continues that
// span's pattern: the spans are those that pushing the operations one at a
// time would build.
func (l *Log) PushRun(lv causal.LV, r Run, at int) {
	if n := len(l.spans); n > 0 {
		s := &l.spans[n-1]
		head := Run{Kind: s.kind, Pos: s.pos, Dir: s.dir, Len: int(lv) - int(s.start)}
		if took := head.Extend(r); took > 0 {
			s.dir = head.Dir
			if took == r.Len {
				return
			}
			lv += causal.LV(took)
			r = r.From(took) // a delete run: an insert is taken whole or not at all
		}
	}
	s := span{pos: r.Pos, start: uint32(lv), content: uint32(at), kind: r.Kind}
	if r.Kind == Insert {
		s.dir = 1
	} else if r.Len > 1 {
		s.dir = r.Dir
	}
	l.spans = append(l.spans, s)
}

// Adopt makes content — every character a saved history inserts, in LV
// order — the arena of the empty log l, as it stands and without a copy.
// The history's runs follow through PushRun and its events go into
// l.Graph, both the caller's to do: the log is whole again once the two
// cover the same LVs and the runs account for every character. It is how
// a loader fills a log from a file's content column, decoded once.
func (l *Log) Adopt(content []rune) {
	if len(l.spans) > 0 || len(l.content) > 0 {
		panic("oplog: Adopt on a log that is not empty")
	}
	l.content = content
}

// Reserve makes room for spans more spans and chars more inserted
// characters, so that appending them allocates nothing (the graph's side
// is causal.Graph.Reserve). A loader reserves the spans it has counted and
// leaves no slack; a merge reserves the characters of the batch it was
// handed, so that the arena moves at most once, where appending run by
// run would move it at every step of its growth and leave each old copy
// behind as garbage.
func (l *Log) Reserve(spans, chars int) {
	l.spans = slices.Grow(l.spans, spans)
	l.content = slices.Grow(l.content, chars)
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
// and not of the log — nothing at all when it goes on where the last one
// stopped. The zero Cursor is valid for any log; a Cursor serves one log.
type Cursor struct{ span int }

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

// opIn returns the operation i places into span s.
func (l *Log) opIn(s *span, i int) Op {
	op := Op{Kind: s.kind, Pos: s.posAt(i)}
	if s.kind == Insert {
		op.Content = l.content[int(s.content)+i]
	}
	return op
}

// OpAt returns the operation attached to the event at lv.
func (l *Log) OpAt(lv causal.LV) Op {
	s := &l.spans[l.spanIdxFor(lv)]
	return l.opIn(s, int(lv)-int(s.start))
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
			if !fn(lv, l.opIn(s, int(lv)-int(s.start))) {
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
// position delta, and (for inserts) the content runes, a slice of the
// log's arena that must not be modified. Used by the encoder.
func (l *Log) EachRun(sp causal.Span, fn func(lvs causal.Span, kind Kind, pos int, dir int8, content []rune) bool) {
	var c Cursor
	if sp.Len() > 0 {
		c.span = l.spanIdxFor(sp.Start)
	}
	l.EachRunFrom(&c, sp, fn)
}

// EachRunFrom is EachRun for a caller that walks the log forwards in
// pieces: it looks for sp.Start where c points and leaves c at the span
// it stopped in.
func (l *Log) EachRunFrom(c *Cursor, sp causal.Span, fn func(lvs causal.Span, kind Kind, pos int, dir int8, content []rune) bool) {
	if sp.Len() <= 0 {
		return
	}
	idx := l.seek(c, sp.Start)
	for ; idx < len(l.spans); idx++ {
		s := &l.spans[idx]
		start, end := max(causal.LV(s.start), sp.Start), min(l.end(idx), sp.End)
		off := int(start) - int(s.start)
		var content []rune
		if s.kind == Insert {
			from, to := int(s.content)+off, int(s.content)+int(end)-int(s.start)
			content = l.content[from:to:to]
		}
		if !fn(causal.Span{Start: start, End: end}, s.kind, s.posAt(off), s.dir, content) || end == sp.End {
			break
		}
	}
	c.span = idx
}

// Content returns the characters of every insert span back to back, in LV
// order — the log's arena, capacity capped, which must not be written: the
// content column of a saved file and the size benchmarks' "raw
// concatenated text" lower bound (Fig 11).
func (l *Log) Content() []rune { return l.content[:len(l.content):len(l.content)] }

// SpanCount returns the number of run-length storage spans (for tests and
// stats).
func (l *Log) SpanCount() int { return len(l.spans) }

// Bytes returns the heap the log holds, the graph's included, from the
// capacities of its arrays.
func (l *Log) Bytes() int {
	return cap(l.spans)*int(unsafe.Sizeof(span{})) + cap(l.content)*int(unsafe.Sizeof(rune(0))) + l.Graph.Bytes()
}

// Searches returns the number of binary searches the log has made for the
// span holding an LV; a forward walk through a Cursor makes none after
// its first.
func (l *Log) Searches() uint64 { return l.searches }
