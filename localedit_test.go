package egwalker

import (
	"bytes"
	"reflect"
	"testing"

	"egwalker/internal/causal"
	"egwalker/internal/core"
	"egwalker/internal/oplog"
)

// refRun is one run of a reference log, its seq and parents spelled out.
type refRun struct {
	agent   string
	seq     int
	parents []causal.LV
	run     oplog.Run
}

func insRun(pos int, s string) oplog.Run {
	rs := []rune(s)
	return oplog.Run{Kind: oplog.Insert, Pos: pos, Dir: 1, Len: len(rs), Content: rs}
}

func delRun(pos int) oplog.Run { return oplog.Run{Kind: oplog.Delete, Pos: pos, Len: 1} }

// sameAsRef holds got to the document whose log is runs added one by one
// through Log.AddRun, seqs as given: the same events, text and saved
// bytes.
func sameAsRef(t *testing.T, name string, got *Doc, runs ...refRun) {
	t.Helper()
	l := oplog.New()
	for _, r := range runs {
		if _, err := l.AddRun(r.agent, r.seq, r.parents, r.run); err != nil {
			t.Fatalf("%s: reference run %s/%d: %v", name, r.agent, r.seq, err)
		}
	}
	text, err := core.ReplayRope(l)
	if err != nil {
		t.Fatal(err)
	}
	want := &Doc{log: l, text: text, agent: got.agent}
	if g, w := got.Events(), want.Events(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: events\n%v\nwant\n%v", name, g, w)
	}
	if got.Text() != want.Text() {
		t.Fatalf("%s: text %q, want %q", name, got.Text(), want.Text())
	}
	var gb, wb bytes.Buffer
	if err := got.Save(&gb, SaveOptions{CacheFinalDoc: true}); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&wb, SaveOptions{CacheFinalDoc: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: saved %d bytes unlike the reference's %d", name, gb.Len(), wb.Len())
	}
}

// TestLocalEditsContinueTheAgent: a Doc appends its edits under the graph's
// number for its agent, looked up at the first local edit, and each takes
// the agent's next seq — however the agent's earlier events got into the
// graph, and whatever number the graph gave it.
func TestLocalEditsContinueTheAgent(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Run("Load", func(t *testing.T) {
		src := NewDoc("me")
		must(src.Insert(0, "hello"))
		var file bytes.Buffer
		must(src.Save(&file, SaveOptions{}))
		d, err := Load(&file, "me")
		must(err)
		must(d.Insert(5, " world"))
		must(d.Delete(0, 1))
		sameAsRef(t, "after Load", d,
			refRun{"me", 0, nil, insRun(0, "hello")},
			refRun{"me", 5, []causal.LV{4}, insRun(5, " world")},
			refRun{"me", 11, []causal.LV{10}, delRun(0)})
	})
	t.Run("Apply", func(t *testing.T) {
		// Another agent is met first, so the local one is not number 0.
		x, earlier := NewDoc("x"), NewDoc("me")
		must(x.Insert(0, "xy"))
		must(earlier.Insert(0, "ab"))
		d := NewDoc("me")
		for _, src := range []*Doc{x, earlier} {
			_, err := d.Apply(src.Events())
			must(err)
		}
		must(d.Insert(0, "c"))
		must(d.Delete(1, 1))
		sameAsRef(t, "after Apply", d,
			refRun{"x", 0, nil, insRun(0, "xy")},
			refRun{"me", 0, nil, insRun(0, "ab")},
			refRun{"me", 2, []causal.LV{1, 3}, insRun(0, "c")},
			refRun{"me", 3, []causal.LV{4}, delRun(1)})
	})
	t.Run("Fork", func(t *testing.T) {
		b, a := NewDoc("b"), NewDoc("a")
		must(b.Insert(0, "hi"))
		_, err := a.Apply(b.Events())
		must(err)
		must(a.Insert(2, "!"))
		fb, err := a.Fork("b")
		must(err)
		must(fb.Insert(0, ">"))
		must(a.Insert(3, "?"))
		sameAsRef(t, "the fork", fb,
			refRun{"b", 0, nil, insRun(0, "hi")},
			refRun{"a", 0, []causal.LV{1}, insRun(2, "!")},
			refRun{"b", 2, []causal.LV{2}, insRun(0, ">")})
		sameAsRef(t, "the forked", a,
			refRun{"b", 0, nil, insRun(0, "hi")},
			refRun{"a", 0, []causal.LV{1}, insRun(2, "!")},
			refRun{"a", 1, []causal.LV{2}, insRun(3, "?")})
	})
	t.Run("literal", func(t *testing.T) {
		l := oplog.New()
		if _, err := l.AddRun("o", 0, nil, insRun(0, "abc")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AddRun("me", 0, []causal.LV{2}, delRun(1)); err != nil {
			t.Fatal(err)
		}
		text, err := core.ReplayRope(l)
		must(err)
		d := &Doc{log: l, text: text, agent: "me"}
		must(d.Insert(2, "Z"))
		must(d.Delete(0, 1))
		sameAsRef(t, "a literal Doc", d,
			refRun{"o", 0, nil, insRun(0, "abc")},
			refRun{"me", 0, []causal.LV{2}, delRun(1)},
			refRun{"me", 1, []causal.LV{3}, insRun(2, "Z")},
			refRun{"me", 2, []causal.LV{4}, delRun(0)})
	})
}
