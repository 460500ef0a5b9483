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
	"strings"

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

// span is a run-length encoded run of operations covering consecutive LVs.
//
// For an insert span, op i has position pos+i and content content[i]
// (humans type forwards; a non-conforming insert starts a new span).
// For a delete span, op i has position pos+i*dir where dir is +0 for
// forward deletes (repeatedly deleting at the same index consumes a run)
// ... see posAt for the exact rules.
type span struct {
	lvs  causal.Span
	kind Kind
	pos  int
	// dir is the per-op position delta: inserts +1; forward deletes 0;
	// backspace deletes -1.
	dir     int8
	content []rune // inserts only; len == lvs.Len()
}

func (s *span) posAt(i int) int { return s.pos + i*int(s.dir) }

// Log is an append-only operation log bound to a causal graph.
type Log struct {
	Graph *causal.Graph
	spans []span
}

// New returns an empty log with a fresh graph.
func New() *Log {
	return &Log{Graph: causal.New()}
}

// Len returns the number of operations (== events) in the log.
func (l *Log) Len() int { return l.Graph.Len() }

// Frontier returns the current version of the log.
func (l *Log) Frontier() causal.Frontier { return l.Graph.Frontier() }

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
	if r.Len < 1 || (r.Kind == Insert && len(r.Content) != r.Len) {
		return causal.Span{}, fmt.Errorf("oplog: run of %d ops with %d characters", r.Len, len(r.Content))
	}
	start, err := l.Graph.Add(agent, seq, r.Len, parents)
	if err != nil {
		return causal.Span{}, err
	}
	l.appendRun(start, r)
	return causal.Span{Start: start, End: start + causal.LV(r.Len)}, nil
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

// appendRun pushes the run r starting at lv, first extending the last
// span by as much of it as continues that span's pattern: the spans are
// those that pushing the operations one at a time would build.
func (l *Log) appendRun(lv causal.LV, r Run) {
	if n := len(l.spans); n > 0 && l.spans[n-1].lvs.End == lv {
		s := &l.spans[n-1]
		head := Run{Kind: s.kind, Pos: s.pos, Dir: s.dir, Len: s.lvs.Len()}
		if took := head.Extend(r); took > 0 {
			s.dir = head.Dir
			s.lvs.End += causal.LV(took)
			if r.Kind == Insert {
				s.content = append(s.content, r.Content...)
			}
			if took == r.Len {
				return
			}
			lv += causal.LV(took)
			r = r.From(took)
		}
	}
	s := span{
		lvs:  causal.Span{Start: lv, End: lv + causal.LV(r.Len)},
		kind: r.Kind,
		pos:  r.Pos,
	}
	if r.Kind == Insert {
		s.dir = 1
		s.content = append([]rune(nil), r.Content...)
	} else if r.Len > 1 {
		s.dir = r.Dir
	}
	l.spans = append(l.spans, s)
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
	lo, hi := 0, len(l.spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.spans[mid].lvs.End > lv {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(l.spans) || !l.spans[lo].lvs.Contains(lv) {
		panic(fmt.Sprintf("oplog: LV %d out of range", lv))
	}
	return lo
}

// OpAt returns the operation attached to the event at lv.
func (l *Log) OpAt(lv causal.LV) Op {
	s := &l.spans[l.spanIdxFor(lv)]
	i := int(lv - s.lvs.Start)
	op := Op{Kind: s.kind, Pos: s.posAt(i)}
	if s.kind == Insert {
		op.Content = s.content[i]
	}
	return op
}

// EachOp calls fn for every op in the LV range [sp.Start, sp.End) in
// order. Iteration stops early if fn returns false.
func (l *Log) EachOp(sp causal.Span, fn func(lv causal.LV, op Op) bool) {
	if sp.Len() <= 0 {
		return
	}
	for idx := l.spanIdxFor(sp.Start); idx < len(l.spans); idx++ {
		s := &l.spans[idx]
		start, end := s.lvs.Start, s.lvs.End
		if start < sp.Start {
			start = sp.Start
		}
		if end > sp.End {
			end = sp.End
		}
		for lv := start; lv < end; lv++ {
			i := int(lv - s.lvs.Start)
			op := Op{Kind: s.kind, Pos: s.posAt(i)}
			if s.kind == Insert {
				op.Content = s.content[i]
			}
			if !fn(lv, op) {
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
// position delta, and (for inserts) the content runes. Used by the
// encoder.
func (l *Log) EachRun(sp causal.Span, fn func(lvs causal.Span, kind Kind, pos int, dir int8, content []rune) bool) {
	if sp.Len() <= 0 {
		return
	}
	for idx := l.spanIdxFor(sp.Start); idx < len(l.spans); idx++ {
		s := &l.spans[idx]
		start, end := s.lvs.Start, s.lvs.End
		if start < sp.Start {
			start = sp.Start
		}
		if end > sp.End {
			end = sp.End
		}
		off := int(start - s.lvs.Start)
		var content []rune
		if s.kind == Insert {
			content = s.content[off : off+int(end-start)]
		}
		if !fn(causal.Span{Start: start, End: end}, s.kind, s.posAt(off), s.dir, content) {
			return
		}
		if end == sp.End {
			return
		}
	}
}

// InsertedContent concatenates the content of every insert operation in
// storage order. Used by the size benchmarks (the "raw concatenated text"
// lower bound in Fig 11).
func (l *Log) InsertedContent() string {
	var b strings.Builder
	for i := range l.spans {
		if l.spans[i].kind == Insert {
			b.WriteString(string(l.spans[i].content))
		}
	}
	return b.String()
}

// SpanCount returns the number of run-length storage spans (for tests and
// stats).
func (l *Log) SpanCount() int { return len(l.spans) }
