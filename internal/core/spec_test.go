package core

// Tests for the strong list specification properties (paper Appendix C,
// Definition C.2) on randomly generated histories, plus failure
// injection for malformed events.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"egwalker/internal/causal"
	"egwalker/internal/oplog"
)

// TestSpec1aElementSet: the replayed document contains exactly the
// characters that were inserted but not deleted (Def C.2, 1a). We count
// multisets of runes: inserted minus deleted must equal the document's
// rune multiset.
func TestSpec1aElementSet(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 20; trial++ {
		l := buildRandomLog(t, rng, 200)
		text := replayOrFail(t, l)

		// Count insertions per rune.
		counts := map[rune]int{}
		l.EachOp(causal.Span{Start: 0, End: causal.LV(l.Len())}, func(_ causal.LV, op oplog.Op) bool {
			if op.Kind == oplog.Insert {
				counts[op.Content]++
			}
			return true
		})
		// Subtract deletions via the ID-op stream (each delete targets
		// exactly one insert event; concurrent duplicate deletes share a
		// target).
		deleted := map[int64]bool{}
		if err := ToIDOps(l, func(op IDOp) {
			if op.Kind == oplog.Delete {
				deleted[op.Target] = true
			}
		}); err != nil {
			t.Fatal(err)
		}
		for target := range deleted {
			op := l.OpAt(causal.LV(target))
			if op.Kind != oplog.Insert {
				t.Fatalf("trial %d: delete target %d is not an insert", trial, target)
			}
			counts[op.Content]--
		}
		for _, r := range text {
			counts[r]--
		}
		for r, c := range counts {
			if c != 0 {
				t.Fatalf("trial %d: rune %q count off by %d", trial, r, c)
			}
		}
	}
}

// TestSpec2TotalOrderStability: elements that appear in both a version's
// document and a later version's document appear in the same relative
// order (the list order is total and stable; Def C.2, 1b/2). We check
// via the ID-op stream: replay prefixes of the graph and verify the
// sequence of surviving IDs of the earlier replay is a subsequence-
// compatible ordering of the later one.
func TestSpec2TotalOrderStability(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for trial := 0; trial < 10; trial++ {
		l := buildRandomLog(t, rng, 150)

		// Sequence of character IDs in the final document.
		finalIDs := docIDs(t, l)
		pos := map[int64]int{}
		for i, id := range finalIDs {
			pos[id] = i
		}

		// A prefix of the log (cut at a random point, then closed under
		// ancestors by simply cutting in storage order, which is
		// ancestor-closed).
		cut := 1 + rng.Intn(l.Len()-1)
		sub := oplog.New()
		l.EachOp(causal.Span{Start: 0, End: causal.LV(cut)}, func(lv causal.LV, op oplog.Op) bool {
			id := l.Graph.IDOf(lv)
			if _, err := sub.AddRemote(id.Agent, id.Seq, l.Graph.ParentsOf(lv), []oplog.Op{op}); err != nil {
				t.Fatal(err)
			}
			return true
		})
		prefIDs := docIDs(t, sub)
		// Every pair of surviving characters common to both documents
		// must be ordered the same way.
		last := -1
		for _, id := range prefIDs {
			p, ok := pos[id]
			if !ok {
				continue // deleted later; not constrained
			}
			if p < last {
				t.Fatalf("trial %d: list order unstable at id %d", trial, id)
			}
			last = p
		}
	}
}

// docIDs replays a log and returns the insert-event LV of each character
// of the resulting document, in document order.
func docIDs(t *testing.T, l *oplog.Log) []int64 {
	t.Helper()
	type idChar struct {
		id int64
	}
	var doc []idChar
	err := TransformAll(l, func(lv causal.LV, op XOp) {
		if op.Kind == oplog.Insert {
			ins := make([]idChar, op.N)
			for i := range ins {
				ins[i] = idChar{int64(lv) + int64(i)}
			}
			doc = append(doc[:op.Pos], append(ins, doc[op.Pos:]...)...)
		} else {
			doc = append(doc[:op.Pos], doc[op.Pos+op.N:]...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(doc))
	for i, c := range doc {
		out[i] = c.id
	}
	return out
}

// TestQuickConvergenceSeeds drives the convergence property with
// testing/quick supplying generator seeds: the same random history
// replayed twice (and via the no-opt path) gives identical documents.
func TestQuickConvergenceSeeds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := buildRandomLogQuiet(rng, 120)
		if l == nil {
			return true
		}
		a, err := ReplayText(l)
		if err != nil {
			return false
		}
		b, err := ReplayText(l)
		if err != nil {
			return false
		}
		r, err := ReplayRopeNoOpt(l)
		if err != nil {
			return false
		}
		return a == b && r.String() == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// buildRandomLogQuiet is buildRandomLog without a testing.T (for quick).
func buildRandomLogQuiet(rng *rand.Rand, events int) *oplog.Log {
	l := oplog.New()
	if _, err := l.AddInsert("seed", nil, 0, "seed text"); err != nil {
		return nil
	}
	heads := []causal.Frontier{l.Frontier()}
	agents := []string{"a", "b", "c"}
	for l.Len() < events {
		hi := rng.Intn(len(heads))
		head := heads[hi]
		sub := oplog.New()
		// Replay the head's closure to learn the doc there.
		_, inV := l.Graph.Diff(causal.Root, head)
		lvMap := map[causal.LV]causal.LV{}
		ok := true
		for _, sp := range inV {
			l.EachOp(sp, func(lv causal.LV, op oplog.Op) bool {
				var parents []causal.LV
				for _, p := range l.Graph.ParentsOf(lv) {
					parents = append(parents, lvMap[p])
				}
				id := l.Graph.IDOf(lv)
				nsp, err := sub.AddRemote(id.Agent, id.Seq, parents, []oplog.Op{op})
				if err != nil {
					ok = false
					return false
				}
				lvMap[lv] = nsp.Start
				return true
			})
		}
		if !ok {
			return nil
		}
		doc, err := ReplayText(sub)
		if err != nil {
			return nil
		}
		agent := agents[rng.Intn(len(agents))]
		n := len([]rune(doc))
		var sp causal.Span
		if n == 0 || rng.Intn(3) > 0 {
			sp, err = l.AddInsert(agent, head, rng.Intn(n+1), string(rune('A'+rng.Intn(26))))
		} else {
			sp, err = l.AddDelete(agent, head, rng.Intn(n), 1)
		}
		if err != nil {
			return nil
		}
		heads[hi] = causal.Frontier{sp.End - 1}
		if rng.Intn(8) == 0 && len(heads) < 3 {
			heads = append(heads, heads[hi].Clone())
		}
	}
	return l
}

// --- failure injection ----------------------------------------------------

func TestMalformedInsertPosition(t *testing.T) {
	l := oplog.New()
	mustInsert(t, l, "a", nil, 0, "ab")
	// An insert far beyond the document length at its parent version.
	if _, err := l.AddInsert("b", []causal.LV{1}, 99, "x"); err != nil {
		t.Fatal(err) // the log itself cannot validate positions
	}
	if _, err := ReplayText(l); err == nil {
		t.Fatal("replay accepted an out-of-range insert")
	}
}

func TestMalformedDeletePosition(t *testing.T) {
	l := oplog.New()
	mustInsert(t, l, "a", nil, 0, "ab")
	if _, err := l.AddDelete("b", []causal.LV{1}, 7, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayText(l); err == nil {
		t.Fatal("replay accepted an out-of-range delete")
	}
}

func TestMalformedConcurrentPosition(t *testing.T) {
	// The invalid position is only invalid in its *parent* version:
	// at replay time the merged doc is long enough, but the prepare
	// version is not. Eg-walker must still reject it.
	l := oplog.New()
	mustInsert(t, l, "a", nil, 0, "ab")                    // doc "ab"
	mustInsert(t, l, "b", []causal.LV{1}, 0, "0123456789") // concurrent: "0123456789ab"
	if _, err := l.AddInsert("c", []causal.LV{1}, 5, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayText(l); err == nil {
		t.Fatal("replay accepted a position invalid in its prepare version")
	}
}

// TestTrackerStateReuse: a tracker can keep transforming events across
// multiple ApplyRange calls (incremental real-time use, §3.5 "it is
// also possible to retain the internal state").
func TestTrackerStateReuse(t *testing.T) {
	l := oplog.New()
	mustInsert(t, l, "a", nil, 0, "abc")
	tr := NewTracker(l, causal.Root, 0)
	var ops1 []XOp
	if err := tr.ApplyRange(causal.Span{Start: 0, End: 3}, 0, func(_ causal.LV, op XOp) {
		ops1 = append(ops1, op)
	}); err != nil {
		t.Fatal(err)
	}
	// New concurrent events arrive later.
	mustInsert(t, l, "b", []causal.LV{2}, 0, "X")
	mustInsert(t, l, "c", []causal.LV{2}, 3, "Y")
	var ops2 []XOp
	if err := tr.ApplyRange(causal.Span{Start: 3, End: 5}, 3, func(_ causal.LV, op XOp) {
		ops2 = append(ops2, op)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ops1) != 1 || len(ops2) != 2 {
		t.Fatalf("emitted %d + %d span ops, want 1 + 2", len(ops1), len(ops2))
	}
	// Apply everything to a buffer and compare with a fresh replay.
	var doc []rune
	for _, op := range append(ops1, ops2...) {
		if op.Kind == oplog.Insert {
			doc = append(doc[:op.Pos], append([]rune(string(op.Text)), doc[op.Pos:]...)...)
		} else {
			doc = append(doc[:op.Pos], doc[op.Pos+op.N:]...)
		}
	}
	want := replayOrFail(t, l)
	if string(doc) != want {
		t.Fatalf("incremental tracker: %q, want %q", string(doc), want)
	}
}
