package oplog

import (
	"testing"
	"unicode/utf8"

	"egwalker/internal/causal"
)

func TestAddInsertRLE(t *testing.T) {
	l := New()
	sp, err := l.AddInsert("a", nil, 0, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len() != 5 || l.Len() != 5 {
		t.Fatalf("span %v, len %d", sp, l.Len())
	}
	if l.SpanCount() != 1 {
		t.Fatalf("insert run not RLE'd: %d spans", l.SpanCount())
	}
	// Continue typing: should extend the same span.
	if _, err := l.AddInsert("a", []causal.LV{4}, 5, " world"); err != nil {
		t.Fatal(err)
	}
	if l.SpanCount() != 1 {
		t.Fatalf("continuation not merged: %d spans", l.SpanCount())
	}
	op := l.OpAt(7)
	if op.Kind != Insert || op.Pos != 7 || op.Content != 'o' {
		t.Fatalf("OpAt(7) = %+v", op)
	}
}

func TestAddDeleteForwardRun(t *testing.T) {
	l := New()
	if _, err := l.AddInsert("a", nil, 0, "abcdef"); err != nil {
		t.Fatal(err)
	}
	sp, err := l.AddDelete("a", []causal.LV{5}, 2, 3) // delete "cde"
	if err != nil {
		t.Fatal(err)
	}
	for lv := sp.Start; lv < sp.End; lv++ {
		op := l.OpAt(lv)
		if op.Kind != Delete || op.Pos != 2 {
			t.Fatalf("OpAt(%d) = %+v, want del@2", lv, op)
		}
	}
	if l.SpanCount() != 2 {
		t.Fatalf("spans = %d, want 2", l.SpanCount())
	}
}

func TestBackspaceRun(t *testing.T) {
	l := New()
	if _, err := l.AddInsert("a", nil, 0, "abcd"); err != nil {
		t.Fatal(err)
	}
	// Backspace from the end: delete at 3, 2, 1.
	ops := []Op{{Kind: Delete, Pos: 3}, {Kind: Delete, Pos: 2}, {Kind: Delete, Pos: 1}}
	sp, err := l.Add("a", []causal.LV{3}, ops)
	if err != nil {
		t.Fatal(err)
	}
	if l.SpanCount() != 2 {
		t.Fatalf("backspace run not RLE'd: %d spans", l.SpanCount())
	}
	want := []int{3, 2, 1}
	for i, lv := 0, sp.Start; lv < sp.End; i, lv = i+1, lv+1 {
		if op := l.OpAt(lv); op.Pos != want[i] {
			t.Fatalf("OpAt(%d).Pos = %d, want %d", lv, op.Pos, want[i])
		}
	}
}

func TestMixedRunsSplit(t *testing.T) {
	l := New()
	if _, err := l.AddInsert("a", nil, 0, "ab"); err != nil {
		t.Fatal(err)
	}
	// Insert at a non-continuing position: new span.
	if _, err := l.AddInsert("a", []causal.LV{1}, 0, "x"); err != nil {
		t.Fatal(err)
	}
	if l.SpanCount() != 2 {
		t.Fatalf("spans = %d, want 2", l.SpanCount())
	}
	if op := l.OpAt(2); op.Pos != 0 || op.Content != 'x' {
		t.Fatalf("OpAt(2) = %+v", op)
	}
}

func TestEachOp(t *testing.T) {
	l := New()
	if _, err := l.AddInsert("a", nil, 0, "abc"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddDelete("a", []causal.LV{2}, 0, 2); err != nil {
		t.Fatal(err)
	}
	var got []Op
	l.EachOp(causal.Span{Start: 1, End: 4}, func(lv causal.LV, op Op) bool {
		got = append(got, op)
		return true
	})
	want := []Op{
		{Kind: Insert, Pos: 1, Content: 'b'},
		{Kind: Insert, Pos: 2, Content: 'c'},
		{Kind: Delete, Pos: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Early termination.
	count := 0
	l.EachOp(causal.Span{Start: 0, End: 5}, func(causal.LV, Op) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d ops", count)
	}
}

func TestEachRun(t *testing.T) {
	l := New()
	if _, err := l.AddInsert("a", nil, 0, "abc"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddDelete("a", []causal.LV{2}, 1, 2); err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	var lens []int
	l.EachRun(causal.Span{Start: 0, End: 5}, func(lvs causal.Span, kind Kind, pos int, dir int8, content []byte) bool {
		kinds = append(kinds, kind)
		lens = append(lens, lvs.Len())
		return true
	})
	if len(kinds) != 2 || kinds[0] != Insert || kinds[1] != Delete || lens[0] != 3 || lens[1] != 2 {
		t.Fatalf("runs = %v %v", kinds, lens)
	}
	// Partial range within a run.
	l.EachRun(causal.Span{Start: 1, End: 2}, func(lvs causal.Span, kind Kind, pos int, dir int8, content []byte) bool {
		if lvs.Len() != 1 || pos != 1 || string(content) != "b" {
			t.Fatalf("partial run: %v pos=%d content=%q", lvs, pos, string(content))
		}
		return true
	})
}

func TestInsertedContent(t *testing.T) {
	l := New()
	if _, err := l.AddInsert("a", nil, 0, "hi"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddDelete("a", []causal.LV{1}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddInsert("b", []causal.LV{2}, 1, "ya"); err != nil {
		t.Fatal(err)
	}
	if got := string(l.Content()); got != "hiya" {
		t.Fatalf("Content = %q", got)
	}
}

func TestAddRemoteSeq(t *testing.T) {
	l := New()
	sp, err := l.AddRemote("z", 10, nil, []Op{{Kind: Insert, Pos: 0, Content: 'q'}})
	if err != nil {
		t.Fatal(err)
	}
	if id := l.Graph.IDOf(sp.Start); id != (causal.RawID{Agent: "z", Seq: 10}) {
		t.Fatalf("IDOf = %v", id)
	}
	// Non-overlapping out-of-order seq ranges are allowed (they occur
	// when a graph arrives in a different topological order)...
	if _, err := l.AddRemote("z", 5, nil, []Op{{Kind: Insert, Pos: 0, Content: 'r'}}); err != nil {
		t.Errorf("out-of-order non-overlapping seq rejected: %v", err)
	}
	// ...but overlapping ranges are duplicates and must be rejected.
	if _, err := l.AddRemote("z", 10, nil, []Op{{Kind: Insert, Pos: 0, Content: 's'}}); err == nil {
		t.Error("overlapping remote seq accepted")
	}
	if _, err := l.AddRemote("z", 4, nil, []Op{{Kind: Insert, Pos: 0, Content: 't'}, {Kind: Insert, Pos: 1, Content: 'u'}}); err == nil {
		t.Error("overlapping remote seq run accepted")
	}
	if _, err := l.Add("z", nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
}

// TestInvalidCharacters: an insert whose character is not a Unicode scalar
// value is U+FFFD in the arena, and OpAt, AppendRunes and Invalid give
// back the value it carried, wherever it falls in a run.
func TestInvalidCharacters(t *testing.T) {
	l := New()
	want := []rune{'a', 'é', -1, 'b', 0xD800, '日', utf8.MaxRune + 1, 'c'}
	if _, err := l.AddRun("a", 0, nil, Run{Kind: Insert, Dir: 1, Len: len(want), Content: want}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddRemote("b", 0, []causal.LV{7}, []Op{{Kind: Insert, Pos: 8, Content: -7}}); err != nil {
		t.Fatal(err)
	}
	want = append(want, -7)
	if got := string(l.Content()); got != string(want) || !utf8.ValidString(got) {
		t.Fatalf("arena %q, want %q", got, string(want))
	}
	for lv, c := range want {
		if op := l.OpAt(causal.LV(lv)); op.Content != c {
			t.Errorf("OpAt(%d) = %q, want %q", lv, op.Content, c)
		}
	}
	var got []rune
	l.EachRun(causal.Span{Start: 1, End: 9}, func(lvs causal.Span, _ Kind, _ int, _ int8, text []byte) bool {
		got = l.AppendRunes(got, lvs.Start, text)
		return true
	})
	if string(got) != string(want[1:]) || got[1] != -1 || got[3] != 0xD800 || got[5] != utf8.MaxRune+1 || got[7] != -7 {
		t.Fatalf("AppendRunes gave %v, want %v", got, want[1:])
	}
	if lv, c, ok := l.Invalid(3); !ok || lv != 4 || c != 0xD800 {
		t.Fatalf("Invalid(3) = %d %q %v, want 4 0xD800", lv, c, ok)
	}
	if _, _, ok := l.Invalid(9); ok {
		t.Fatal("Invalid past the last invalid character found one")
	}
}
