package oplog

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"egwalker/internal/causal"
)

// TestQuickRLERoundTrip: arbitrary op sequences stored through the
// run-length encoder read back identically via OpAt and EachOp.
func TestQuickRLERoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New()
		var want []Op
		var frontier []causal.LV
		docLen := 0
		for batch := 0; batch < 10; batch++ {
			n := 1 + rng.Intn(8)
			ops := make([]Op, 0, n)
			for i := 0; i < n; i++ {
				if docLen == 0 || rng.Intn(3) > 0 {
					pos := rng.Intn(docLen + 1)
					ops = append(ops, Op{Kind: Insert, Pos: pos, Content: alphabet[rng.Intn(len(alphabet))]})
					docLen++
				} else {
					pos := rng.Intn(docLen)
					ops = append(ops, Op{Kind: Delete, Pos: pos})
					docLen--
				}
			}
			sp, err := l.Add("agent", frontier, ops)
			if err != nil {
				return false
			}
			frontier = []causal.LV{sp.End - 1}
			want = append(want, ops...)
		}
		// OpAt random access.
		for i, w := range want {
			if got := l.OpAt(causal.LV(i)); got != w {
				return false
			}
		}
		// EachOp full scan.
		i := 0
		okAll := true
		l.EachOp(causal.Span{Start: 0, End: causal.LV(len(want))}, func(lv causal.LV, op Op) bool {
			if int(lv) != i || op != want[i] {
				okAll = false
				return false
			}
			i++
			return true
		})
		return okAll && i == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickEachRunCoversAll: runs returned by EachRun partition the
// requested span exactly, and their per-op expansion matches OpAt.
func TestQuickEachRunCoversAll(t *testing.T) {
	f := func(seed int64, loPick, hiPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New()
		var frontier []causal.LV
		docLen := 0
		for l.Len() < 60 {
			if docLen == 0 || rng.Intn(3) > 0 {
				sp, err := l.AddInsert("a", frontier, rng.Intn(docLen+1), string(rune('a'+rng.Intn(26))))
				if err != nil {
					return false
				}
				frontier = []causal.LV{sp.End - 1}
				docLen++
			} else {
				sp, err := l.AddDelete("a", frontier, rng.Intn(docLen), 1)
				if err != nil {
					return false
				}
				frontier = []causal.LV{sp.End - 1}
				docLen--
			}
		}
		lo := int(loPick) % l.Len()
		hi := lo + 1 + int(hiPick)%(l.Len()-lo)
		next := causal.LV(lo)
		okAll := true
		l.EachRun(causal.Span{Start: causal.LV(lo), End: causal.LV(hi)},
			func(lvs causal.Span, kind Kind, pos int, dir int8, content []byte) bool {
				if lvs.Start != next {
					okAll = false
					return false
				}
				for i := 0; i < lvs.Len(); i++ {
					want := l.OpAt(lvs.Start + causal.LV(i))
					if want.Kind != kind || want.Pos != pos+i*int(dir) {
						okAll = false
						return false
					}
					if kind == Insert && want.Content != l.AppendRunes(nil, lvs.Start, content)[i] {
						okAll = false
						return false
					}
				}
				next = lvs.End
				return true
			})
		return okAll && next == causal.LV(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickEachKindFromBothWays: through one Cursor carried from walk to
// walk, EachKindFrom yields EachRun's runs of a random span, first to last
// or, with desc, last to first, and stops where fn says.
func TestQuickEachKindFromBothWays(t *testing.T) {
	type run struct {
		lvs  causal.Span
		kind Kind
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New()
		var frontier []causal.LV
		for docLen := 0; l.Len() < 200; {
			var sp causal.Span
			var err error
			if docLen == 0 || rng.Intn(3) > 0 {
				sp, err = l.AddInsert("a", frontier, rng.Intn(docLen+1), "xyz"[:1+rng.Intn(3)])
				docLen += sp.Len()
			} else {
				sp, err = l.AddDelete("a", frontier, rng.Intn(docLen), 1)
				docLen--
			}
			if err != nil {
				return false
			}
			frontier = []causal.LV{sp.End - 1}
		}
		var c Cursor
		for range 20 {
			lo := rng.Intn(l.Len())
			sp := causal.Span{Start: causal.LV(lo), End: causal.LV(lo + 1 + rng.Intn(l.Len()-lo))}
			var want []run
			l.EachRun(sp, func(lvs causal.Span, kind Kind, _ int, _ int8, _ []byte) bool {
				want = append(want, run{lvs, kind})
				return true
			})
			desc := rng.Intn(2) == 0
			if desc {
				slices.Reverse(want)
			}
			stop := 1 + rng.Intn(len(want)+1)
			var got []run
			l.EachKindFrom(&c, sp, desc, func(lvs causal.Span, kind Kind) bool {
				got = append(got, run{lvs, kind})
				return len(got) < stop
			})
			if !slices.Equal(got, want[:min(stop, len(want))]) {
				t.Logf("span %v, desc %v, stop %d: got %v, want %v", sp, desc, stop, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickAddRunMatchesPerOp: a random op sequence, rich in runs that
// change direction and runs that continue across an author change, cut
// into runs at random and appended with AddRun or AddRunNum, builds
// exactly the spans that pushing the ops one at a time builds.
func TestQuickAddRunMatchesPerOp(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Runs in the generator's sense: a pattern held for a few ops.
		var ops []Op
		pos := 40
		for len(ops) < 120 {
			n := 1 + rng.Intn(5)
			switch rng.Intn(4) {
			case 0: // typing, sometimes continuing where the last run stopped
				if rng.Intn(2) == 0 {
					pos = rng.Intn(80)
				}
				for i := 0; i < n; i++ {
					ops = append(ops, Op{Kind: Insert, Pos: pos, Content: alphabet[rng.Intn(len(alphabet))]})
					pos++
				}
			case 1: // forward delete
				if rng.Intn(2) == 0 {
					pos = 5 + rng.Intn(80)
				}
				for i := 0; i < n; i++ {
					ops = append(ops, Op{Kind: Delete, Pos: pos})
				}
			case 2: // backspace
				if rng.Intn(2) == 0 {
					pos = 5 + rng.Intn(80)
				}
				for i := 0; i < n && pos > 0; i++ {
					ops = append(ops, Op{Kind: Delete, Pos: pos})
					pos--
				}
			default: // a delete one below or at the last position
				pos -= rng.Intn(2)
				if pos < 0 {
					pos = 0
				}
				ops = append(ops, Op{Kind: Delete, Pos: pos})
			}
		}

		var want []refSpan
		for i, op := range ops {
			want = refAppendOp(want, causal.LV(i), op)
		}

		// Cut the ops into runs: first the maximal ones (Extend op by op),
		// then each split again at random, so that runs arrive that could
		// have been longer.
		l := New()
		agents := []string{"a", "b"}
		seqs := map[string]int{}
		var frontier []causal.LV
		for i := 0; i < len(ops); {
			r := Run{Kind: ops[i].Kind, Pos: ops[i].Pos, Len: 1}
			if r.Kind == Insert {
				r.Dir = 1
			}
			j := i + 1
			for j < len(ops) && rng.Intn(6) > 0 {
				next := Run{Kind: ops[j].Kind, Pos: ops[j].Pos, Len: 1}
				if r.Extend(next) == 0 {
					break
				}
				j++
			}
			if r.Kind == Insert {
				for _, op := range ops[i:j] {
					r.Content = append(r.Content, op.Content)
				}
			}
			agent := agents[rng.Intn(2)]
			var sp causal.Span
			var err error
			if aid := l.Graph.AgentNum(agent); aid >= 0 && rng.Intn(2) == 0 {
				// By number, the parent handed in with its entry.
				sp, err = l.AddRunNum(agent, aid, seqs[agent], l.Graph.Refs(frontier, nil), r)
			} else {
				sp, err = l.AddRun(agent, seqs[agent], frontier, r)
			}
			if err != nil || sp.Start != causal.LV(i) || sp.Len() != j-i {
				return false
			}
			seqs[agent] += j - i
			frontier = []causal.LV{sp.End - 1}
			i = j
		}
		if err := sameSpans(l, want); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i, op := range ops {
			if got := l.OpAt(causal.LV(i)); got != op {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAddRunRejectsBadRuns(t *testing.T) {
	l := New()
	if _, err := l.AddRun("a", 0, nil, Run{Kind: Delete, Pos: 0}); err == nil {
		t.Error("empty run accepted")
	}
	if _, err := l.AddRun("a", 0, nil, Run{Kind: Insert, Dir: 1, Len: 2, Content: []rune("x")}); err == nil {
		t.Error("insert run with the wrong content length accepted")
	}
	if l.Len() != 0 || l.SpanCount() != 0 {
		t.Errorf("rejected runs left %d events, %d spans", l.Len(), l.SpanCount())
	}
	// The log copies content: the caller's buffer is free to change.
	buf := []rune("hey")
	if _, err := l.AddRun("a", 0, nil, Run{Kind: Insert, Dir: 1, Len: 3, Content: buf}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	if got := string(l.Content()); got != "hey" {
		t.Errorf("log content %q after the caller changed its buffer, want %q", got, "hey")
	}
}

// TestAdoptPushRunBuildsTheSameLog: a log filled the loader's way — the
// characters, of one to four bytes, adopted whole, the saved log's runs
// pushed however they were cut at the character and byte offsets a walk
// of them keeps, the events added to the graph apart — has the spans and
// the operations of the log that grew by AddRun.
func TestAdoptPushRunBuildsTheSameLog(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		grown := New()
		docLen := 0
		for grown.Len() < 80 {
			var r Run
			switch n := 1 + rng.Intn(6); {
			case docLen < 8 || rng.Intn(3) > 0:
				r = Run{Kind: Insert, Pos: rng.Intn(docLen + 1), Dir: 1, Len: n, Content: []rune("aé日𝄞cf")[:n]}
				docLen += n
			case rng.Intn(2) == 0:
				r = Run{Kind: Delete, Pos: rng.Intn(docLen - n + 1), Len: n}
				docLen -= n
			default:
				r = Run{Kind: Delete, Pos: n - 1 + rng.Intn(docLen-n+1), Len: n}
				if n > 1 {
					r.Dir = -1
				}
				docLen -= n
			}
			if _, err := grown.AppendRun(grown.Graph.NumberAgent("a"), r); err != nil {
				t.Fatal(err)
			}
		}
		filled := New()
		filled.Adopt(slices.Clone(grown.Content()))
		filled.Reserve(grown.SpanCount(), 0)
		used, usedBytes := 0, 0
		// The saved runs, some cut in two: the spans must not depend on it.
		grown.EachRun(causal.Span{End: causal.LV(grown.Len())}, func(lvs causal.Span, kind Kind, pos int, dir int8, content []byte) bool {
			r := Run{Kind: kind, Pos: pos, Dir: dir, Len: lvs.Len()}
			if cut := rng.Intn(r.Len + 1); cut > 0 && cut < r.Len && kind == Delete {
				head := r
				head.Len = cut
				if cut == 1 {
					head.Dir = 0
				}
				filled.PushRun(lvs.Start, head, used, usedBytes)
				lvs.Start += causal.LV(cut)
				r = r.From(cut)
			}
			filled.PushRun(lvs.Start, r, used, usedBytes)
			used, usedBytes = used+utf8.RuneCount(content), usedBytes+len(content)
			return true
		})
		if _, err := filled.Graph.Add("a", 0, grown.Len(), nil); err != nil {
			t.Fatal(err)
		}
		if filled.SpanCount() != grown.SpanCount() || filled.Bytes() > grown.Bytes() {
			t.Fatalf("round %d: filled log has %d spans in %d B, grown log %d in %d B", round, filled.SpanCount(), filled.Bytes(), grown.SpanCount(), grown.Bytes())
		}
		for lv := causal.LV(0); int(lv) < grown.Len(); lv++ {
			if got, want := filled.OpAt(lv), grown.OpAt(lv); got != want {
				t.Fatalf("round %d: op %d is %+v in the filled log, %+v in the grown one", round, lv, got, want)
			}
		}
	}
}
