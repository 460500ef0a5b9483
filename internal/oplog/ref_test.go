package oplog

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"egwalker/internal/causal"
)

// refSpan is the span the log stored before its layout went flat: its own
// LV range and its own content array, one heap object each. It is kept as
// the model the flat log is held to.
type refSpan struct {
	lvs     causal.Span
	kind    Kind
	pos     int
	dir     int8
	content []rune // inserts only; len == lvs.Len()
}

func (s *refSpan) posAt(i int) int { return s.pos + i*int(s.dir) }

// refAppendOp is the per-op append the log had before runs were appended
// whole, kept as the reference: pushing a log's ops through it one at a
// time defines the spans AddRun must build from any cut of those ops
// into runs.
func refAppendOp(spans []refSpan, lv causal.LV, op Op) []refSpan {
	if n := len(spans); n > 0 {
		s := &spans[n-1]
		if s.lvs.End == lv && s.kind == op.Kind {
			i := s.lvs.Len()
			switch op.Kind {
			case Insert:
				if op.Pos == s.pos+i {
					s.lvs.End++
					s.content = append(s.content, op.Content)
					return spans
				}
			case Delete:
				if i == 1 && (op.Pos == s.pos || op.Pos == s.pos-1) {
					if op.Pos == s.pos {
						s.dir = 0
					} else {
						s.dir = -1
					}
					s.lvs.End++
					return spans
				}
				if i > 1 && op.Pos == s.posAt(i) {
					s.lvs.End++
					return spans
				}
			}
		}
	}
	s := refSpan{lvs: causal.Span{Start: lv, End: lv + 1}, kind: op.Kind, pos: op.Pos}
	if op.Kind == Insert {
		s.dir = 1
		s.content = []rune{op.Content}
	}
	return append(spans, s)
}

// refRun is what EachRun reports for one run.
type refRun struct {
	lvs     causal.Span
	kind    Kind
	pos     int
	dir     int8
	content string
}

// refEachRun is EachRun over the model: every span that overlaps sp,
// clipped to it.
func refEachRun(spans []refSpan, sp causal.Span) []refRun {
	var out []refRun
	for i := range spans {
		s := &spans[i]
		start, end := max(s.lvs.Start, sp.Start), min(s.lvs.End, sp.End)
		if start >= end {
			continue
		}
		off := int(start - s.lvs.Start)
		r := refRun{lvs: causal.Span{Start: start, End: end}, kind: s.kind, pos: s.posAt(off), dir: s.dir}
		if s.kind == Insert {
			r.content = string(s.content[off : off+int(end-start)])
		}
		out = append(out, r)
	}
	return out
}

// sameSpans compares the flat log's records, expanded, with the model's.
func sameSpans(l *Log, want []refSpan) error {
	if len(l.spans) != len(want) {
		return fmt.Errorf("%d spans, want %d", len(l.spans), len(want))
	}
	for i, w := range want {
		s := &l.spans[i]
		got := refSpan{lvs: causal.Span{Start: causal.LV(s.start), End: l.end(i)}, kind: s.kind, pos: s.pos, dir: s.dir}
		if s.kind == Insert {
			got.content = []rune(string(l.textOf(i, 0, got.lvs.Len(), new(Cursor))))
		}
		if got.lvs != w.lvs || got.kind != w.kind || got.pos != w.pos || got.dir != w.dir || string(got.content) != string(w.content) {
			return fmt.Errorf("span %d = %+v, want %+v", i, got, w)
		}
	}
	return nil
}

// collectRuns gathers what each reports, content copied.
func collectRuns(each func(fn func(lvs causal.Span, kind Kind, pos int, dir int8, content []byte) bool)) []refRun {
	var out []refRun
	each(func(lvs causal.Span, kind Kind, pos int, dir int8, content []byte) bool {
		out = append(out, refRun{lvs, kind, pos, dir, string(content)})
		return true
	})
	return out
}

// alphabet has characters of every UTF-8 length.
var alphabet = []rune("abcdefgh éü日本語𝄞😀")

// randomOps returns n ops rich in runs that change direction, runs that
// stop and resume where they stopped, and lone deletes.
func randomOps(rng *rand.Rand, n int) []Op {
	var ops []Op
	pos := 40
	for len(ops) < n {
		k := 1 + rng.Intn(5)
		switch rng.Intn(4) {
		case 0: // typing, sometimes continuing where the last run stopped
			if rng.Intn(2) == 0 {
				pos = rng.Intn(80)
			}
			for i := 0; i < k; i++ {
				ops = append(ops, Op{Kind: Insert, Pos: pos, Content: alphabet[rng.Intn(len(alphabet))]})
				pos++
			}
		case 1: // forward delete
			if rng.Intn(2) == 0 {
				pos = 5 + rng.Intn(80)
			}
			for i := 0; i < k; i++ {
				ops = append(ops, Op{Kind: Delete, Pos: pos})
			}
		case 2: // backspace
			if rng.Intn(2) == 0 {
				pos = 5 + rng.Intn(80)
			}
			for i := 0; i < k && pos > 0; i++ {
				ops = append(ops, Op{Kind: Delete, Pos: pos})
				pos--
			}
		default: // a delete one below or at the last position
			pos = max(pos-rng.Intn(2), 0)
			ops = append(ops, Op{Kind: Delete, Pos: pos})
		}
	}
	return ops
}

// TestFlatLogMatchesRef holds the flat log to the pointerful model after
// every AddRun of a random history — runs cut at random so that they
// continue the last span across calls and across an author change — on
// every accessor: the records themselves, OpAt at every LV, EachRun and
// EachOp clipped at every pair of offsets, and EachRunFrom walking
// forwards in random pieces through one Cursor.
func TestFlatLogMatchesRef(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 70)
		l := New()
		var want []refSpan
		agents := []string{"a", "b"}
		seqs := map[string]int{}
		var frontier []causal.LV
		for i := 0; i < len(ops); {
			r := Unit(ops[i].Kind == Insert, ops[i].Pos)
			j := i + 1
			for j < len(ops) && rng.Intn(6) > 0 && r.Extend(Unit(ops[j].Kind == Insert, ops[j].Pos)) > 0 {
				j++
			}
			for _, op := range ops[i:j] {
				if r.Kind == Insert {
					r.Content = append(r.Content, op.Content)
				}
				want = refAppendOp(want, causal.LV(i), op)
				i++
			}
			agent := agents[rng.Intn(2)]
			sp, err := l.AddRun(agent, seqs[agent], frontier, r)
			if err != nil || sp.End != causal.LV(i) || sp.Len() != r.Len {
				t.Fatalf("seed %d: AddRun = %v, %v", seed, sp, err)
			}
			seqs[agent] += r.Len
			frontier = []causal.LV{sp.End - 1}
			if err := sameSpans(l, want); err != nil {
				t.Fatalf("seed %d after %d ops: %v", seed, i, err)
			}
			if rng.Intn(4) > 0 && i < len(ops) {
				continue // the accessors, every few runs and at the end
			}
			n := causal.LV(i)
			for lv := causal.LV(0); lv < n; lv++ {
				if got := l.OpAt(lv); got != ops[lv] {
					t.Fatalf("seed %d: OpAt(%d) = %+v, want %+v", seed, lv, got, ops[lv])
				}
			}
			for lo := causal.LV(0); lo < n; lo++ {
				for hi := lo + 1; hi <= n; hi++ {
					sp := causal.Span{Start: lo, End: hi}
					got := collectRuns(func(fn func(causal.Span, Kind, int, int8, []byte) bool) { l.EachRun(sp, fn) })
					if w := refEachRun(want, sp); !slices.Equal(got, w) {
						t.Fatalf("seed %d: EachRun(%v) = %+v, want %+v", seed, sp, got, w)
					}
					at := lo
					l.EachOp(sp, func(lv causal.LV, op Op) bool {
						if lv != at || op != ops[lv] {
							t.Fatalf("seed %d: EachOp(%v) at %d = %d %+v, want %+v", seed, sp, at, lv, op, ops[at])
						}
						at++
						return true
					})
					if at != hi {
						t.Fatalf("seed %d: EachOp(%v) stopped at %d", seed, sp, at)
					}
				}
			}
			// Forward in pieces, some of them skipping ahead: the cursor
			// answers what a search answers.
			var c Cursor
			for lo := causal.LV(0); lo < n; {
				hi := min(lo+1+causal.LV(rng.Intn(12)), n)
				sp := causal.Span{Start: lo, End: hi}
				got := collectRuns(func(fn func(causal.Span, Kind, int, int8, []byte) bool) { l.EachRunFrom(&c, sp, fn) })
				if w := refEachRun(want, sp); !slices.Equal(got, w) {
					t.Fatalf("seed %d: EachRunFrom(%v) = %+v, want %+v", seed, sp, got, w)
				}
				lo = hi + causal.LV(rng.Intn(2)*rng.Intn(9))
			}
		}
	}
}

// TestCursorWalkMakesNoSearch: a log walked forwards piece by piece
// through one Cursor is searched once, at most; walked with EachRun, once
// per piece.
func TestCursorWalkMakesNoSearch(t *testing.T) {
	l := New()
	var frontier []causal.LV
	for i := 0; i < 200; i++ {
		sp, err := l.AddRun("a", l.Len(), frontier, Run{Kind: Insert, Pos: (i * 7) % (l.Len() + 1), Dir: 1, Len: 3, Content: []rune("abc")})
		if err != nil {
			t.Fatal(err)
		}
		frontier = []causal.LV{sp.End - 1}
	}
	if l.SpanCount() < 150 {
		t.Fatalf("%d spans: the runs merged", l.SpanCount())
	}
	walk := func(each func(sp causal.Span)) uint64 {
		before := l.Searches()
		for lo := 0; lo < l.Len(); lo += 5 {
			each(causal.Span{Start: causal.LV(lo), End: causal.LV(min(lo+5, l.Len()))})
		}
		return l.Searches() - before
	}
	nop := func(causal.Span, Kind, int, int8, []byte) bool { return true }
	var c Cursor
	if n := walk(func(sp causal.Span) { l.EachRunFrom(&c, sp, nop) }); n > 1 {
		t.Errorf("%d searches walking forwards through a Cursor, want at most 1", n)
	}
	if n, pieces := walk(func(sp causal.Span) { l.EachRun(sp, nop) }), uint64(l.Len()/5); n != pieces {
		t.Errorf("%d searches in %d walks without one, want one each", n, pieces)
	}
}

// TestContentSliceSurvivesRegrowth: a content slice handed out by EachRun
// reads the same after the arena has moved many times over, and appending
// to it does not write into the arena.
func TestContentSliceSurvivesRegrowth(t *testing.T) {
	l := New()
	if _, err := l.AddInsert("a", nil, 0, "hello"); err != nil {
		t.Fatal(err)
	}
	var held []byte
	l.EachRun(causal.Span{Start: 1, End: 4}, func(_ causal.Span, _ Kind, _ int, _ int8, content []byte) bool {
		held = content
		return true
	})
	base := unsafe.SliceData(l.text)
	for i := 0; i < 2000; i++ {
		// Typing on: the first span itself grows, through every regrowth.
		if _, err := l.AddInsert("a", []causal.LV{causal.LV(l.Len() - 1)}, l.Len(), "xyz"); err != nil {
			t.Fatal(err)
		}
	}
	if unsafe.SliceData(l.text) == base {
		t.Fatal("the arena never moved")
	}
	if l.SpanCount() != 1 {
		t.Fatalf("%d spans, want the one", l.SpanCount())
	}
	if string(held) != "ell" {
		t.Fatalf("held slice reads %q after regrowth, want %q", string(held), "ell")
	}
	_ = append(held, 'X')
	if got := l.OpAt(4); got.Content != 'o' {
		t.Fatalf("appending to a handed-out slice wrote %q into the log", got.Content)
	}
}

// TestLimits: the log's records count LVs and characters in 32 bits. A
// run of 2^32 events is one record, so the bound is a few calls away:
// past it AddRun returns an error and leaves the log as it was, where an
// unchecked narrowing would wrap a span's start.
func TestLimits(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot pass the limit")
	}
	var huge int = math.MaxUint32 - 10
	l := New()
	if _, err := l.AddRun("a", 0, nil, Run{Kind: Delete, Pos: 7, Len: huge}); err != nil {
		t.Fatal(err)
	}
	tip := []causal.LV{causal.LV(huge - 1)}
	if _, err := l.AddRun("b", 0, tip, Run{Kind: Insert, Pos: 0, Dir: 1, Len: 11, Content: []rune("hello world")}); err == nil {
		t.Fatal("a run ending past 2^32 events was accepted")
	}
	if _, err := l.AppendRun(l.Graph.NumberAgent("b"), Run{Kind: Insert, Pos: 0, Dir: 1, Len: 11, Content: []rune("hello world")}); err == nil {
		t.Fatal("a local run ending past 2^32 events was accepted")
	}
	if l.Len() != huge || l.SpanCount() != 1 || len(l.text) != 0 {
		t.Fatalf("rejected runs left %d events, %d spans, %d characters", l.Len(), l.SpanCount(), len(l.text))
	}
	// Up to the bound exactly, and then every accessor still answers.
	sp, err := l.AddRun("b", 0, tip, Run{Kind: Insert, Pos: 3, Dir: 1, Len: 10, Content: []rune("0123456789")})
	if err != nil {
		t.Fatal(err)
	}
	if sp.End != math.MaxUint32 || l.Len() != math.MaxUint32 {
		t.Fatalf("span %v, %d events", sp, l.Len())
	}
	if op := l.OpAt(sp.End - 1); op != (Op{Kind: Insert, Pos: 12, Content: '9'}) {
		t.Fatalf("last op = %+v", op)
	}
	if op := l.OpAt(sp.Start - 1); op != (Op{Kind: Delete, Pos: 7}) {
		t.Fatalf("op before it = %+v", op)
	}
	if _, err := l.AddDelete("b", []causal.LV{sp.End - 1}, 0, 1); err == nil {
		t.Fatal("an event past 2^32 was accepted")
	}
}

// TestSpanRecordSize: a field added to the record shows here first.
func TestSpanRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(span{}); got != 24 && strconv.IntSize == 64 {
		t.Fatalf("a span record is %d bytes, want 24", got)
	}
}

// TestReserveKeepsArraysInPlace: after Reserve the
// runs reserved for go in without either array moving; without, the
// content arena alone moves at every step of its growth.
func TestReserveKeepsArraysInPlace(t *testing.T) {
	build := func(reserve bool) (moves int) {
		l := New()
		if _, err := l.AddInsert("a", nil, 0, "some text to begin with"); err != nil {
			t.Fatal(err)
		}
		if reserve {
			l.Reserve(500, 5000)
		}
		spans, content := unsafe.SliceData(l.spans), unsafe.SliceData(l.text)
		for i := 0; i < 500; i++ {
			tip := []causal.LV{causal.LV(l.Len() - 1)}
			if _, err := l.AddRun("a", l.Len(), tip, Run{Kind: Insert, Pos: (i * 13) % l.Len(), Dir: 1, Len: 10, Content: []rune("0123456789")}); err != nil {
				t.Fatal(err)
			}
			if unsafe.SliceData(l.spans) != spans || unsafe.SliceData(l.text) != content {
				moves++
				spans, content = unsafe.SliceData(l.spans), unsafe.SliceData(l.text)
			}
		}
		return moves
	}
	if moves := build(true); moves != 0 {
		t.Errorf("the arrays moved %d times after a reservation that covers the runs", moves)
	}
	if moves := build(false); moves < 8 {
		t.Errorf("the arrays moved %d times growing by append: the test no longer shows what a reservation saves", moves)
	}
}
