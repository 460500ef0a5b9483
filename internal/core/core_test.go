package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"egwalker/internal/causal"
	"egwalker/internal/oplog"
	"egwalker/internal/rope"
)

// mustAdd* are small helpers that fail the test on error.
func mustInsert(t *testing.T, l *oplog.Log, agent string, parents []causal.LV, pos int, text string) causal.Span {
	t.Helper()
	sp, err := l.AddInsert(agent, parents, pos, text)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func mustDelete(t *testing.T, l *oplog.Log, agent string, parents []causal.LV, pos, count int) causal.Span {
	t.Helper()
	sp, err := l.AddDelete(agent, parents, pos, count)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func replayOrFail(t *testing.T, l *oplog.Log) string {
	t.Helper()
	text, err := ReplayText(l)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestFigure1 reproduces the paper's introductory example: "Helo", with
// user 1 inserting "l" at 3 concurrently with user 2 inserting "!" at 4.
// Both must converge to "Hello!".
func TestFigure1(t *testing.T) {
	l := oplog.New()
	mustInsert(t, l, "A", nil, 0, "Helo") // LVs 0..3
	mustInsert(t, l, "B", []causal.LV{3}, 3, "l")
	mustInsert(t, l, "C", []causal.LV{3}, 4, "!")
	if got := replayOrFail(t, l); got != "Hello!" {
		t.Fatalf("got %q, want Hello!", got)
	}
	// Other delivery order.
	l2 := oplog.New()
	mustInsert(t, l2, "A", nil, 0, "Helo")
	mustInsert(t, l2, "C", []causal.LV{3}, 4, "!")
	mustInsert(t, l2, "B", []causal.LV{3}, 3, "l")
	if got := replayOrFail(t, l2); got != "Hello!" {
		t.Fatalf("reordered: got %q, want Hello!", got)
	}
}

// TestFigure4 reproduces the worked example of §3.2/Figure 4: "hi" edited
// concurrently to "Hi" (capitalise) and "hey", merged to "Hey", then "!"
// appended to give "Hey!".
func TestFigure4(t *testing.T) {
	l := oplog.New()
	mustInsert(t, l, "X", nil, 0, "h")               // e1: lv 0
	mustInsert(t, l, "X", []causal.LV{0}, 1, "i")    // e2: lv 1
	mustInsert(t, l, "A", []causal.LV{1}, 0, "H")    // e3: lv 2
	mustDelete(t, l, "A", []causal.LV{2}, 1, 1)      // e4: lv 3 (delete "h")
	mustDelete(t, l, "B", []causal.LV{1}, 1, 1)      // e5: lv 4 (delete "i")
	mustInsert(t, l, "B", []causal.LV{4}, 1, "e")    // e6: lv 5
	mustInsert(t, l, "B", []causal.LV{5}, 2, "y")    // e7: lv 6
	mustInsert(t, l, "B", []causal.LV{3, 6}, 3, "!") // e8: lv 7
	if got := replayOrFail(t, l); got != "Hey!" {
		t.Fatalf("got %q, want Hey!", got)
	}
}

// TestSequentialReplay checks plain typing (the all-fast-path case).
func TestSequentialReplay(t *testing.T) {
	l := oplog.New()
	mustInsert(t, l, "a", nil, 0, "hello world")
	mustDelete(t, l, "a", []causal.LV{10}, 5, 6) // -> "hello"
	mustInsert(t, l, "a", []causal.LV{16}, 5, "!")
	if got := replayOrFail(t, l); got != "hello!" {
		t.Fatalf("got %q", got)
	}
}

// TestConcurrentDeleteSameChar: two replicas delete the same character;
// only one transformed delete must be emitted.
func TestConcurrentDeleteSameChar(t *testing.T) {
	l := oplog.New()
	mustInsert(t, l, "a", nil, 0, "abc")
	mustDelete(t, l, "b", []causal.LV{2}, 1, 1)
	mustDelete(t, l, "c", []causal.LV{2}, 1, 1)
	var dels int
	if err := TransformAll(l, func(_ causal.LV, op XOp) {
		if op.Kind == oplog.Delete {
			dels++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if dels != 1 {
		t.Fatalf("emitted %d deletes, want 1", dels)
	}
	if got := replayOrFail(t, l); got != "ac" {
		t.Fatalf("got %q, want ac", got)
	}
}

// TestConcurrentInsertDelete: one user deletes a char while another
// inserts after it.
func TestConcurrentInsertDelete(t *testing.T) {
	l := oplog.New()
	mustInsert(t, l, "a", nil, 0, "abc")
	mustDelete(t, l, "a", []causal.LV{2}, 0, 3)   // delete everything
	mustInsert(t, l, "b", []causal.LV{2}, 3, "x") // concurrently append "x"
	if got := replayOrFail(t, l); got != "x" {
		t.Fatalf("got %q, want x", got)
	}
}

// TestNonInterleaving: two users concurrently type runs at the same
// position; the runs must not interleave (§3.1).
func TestNonInterleaving(t *testing.T) {
	l := oplog.New()
	mustInsert(t, l, "base", nil, 0, "[]")
	mustInsert(t, l, "a", []causal.LV{1}, 1, "aaaa")
	mustInsert(t, l, "b", []causal.LV{1}, 1, "bbbb")
	got := replayOrFail(t, l)
	if got != "[aaaabbbb]" && got != "[bbbbaaaa]" {
		t.Fatalf("interleaved result %q", got)
	}
}

// TestNoOptMatchesOpt: the Fig 9 ablation configuration must produce the
// same document.
func TestNoOptMatchesOpt(t *testing.T) {
	l := buildRandomLog(t, rand.New(rand.NewSource(5)), 300)
	opt := replayOrFail(t, l)
	r, err := ReplayRopeNoOpt(l)
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != opt {
		t.Fatalf("no-opt replay diverges:\n opt: %q\n raw: %q", opt, r.String())
	}
}

// buildRandomLog builds a single log with random concurrency by
// generating events against replayed intermediate states.
func buildRandomLog(t *testing.T, rng *rand.Rand, events int) *oplog.Log {
	t.Helper()
	l := oplog.New()
	// Seed with some text.
	mustInsert(t, l, "seed", nil, 0, "seed text")
	// Track a few "branch heads" to generate concurrent events.
	heads := []causal.Frontier{l.Frontier()}
	agents := []string{"a", "b", "c"}
	for l.Len() < events {
		hi := rng.Intn(len(heads))
		head := heads[hi]
		// Compute the doc at this head to pick valid positions.
		doc := docAtVersion(t, l, head)
		agent := agents[rng.Intn(len(agents))]
		var sp causal.Span
		if n := len([]rune(doc)); n == 0 || rng.Intn(3) > 0 {
			pos := rng.Intn(n + 1)
			sp = mustInsert(t, l, agent, head, pos, string(rune('A'+rng.Intn(26))))
		} else {
			pos := rng.Intn(n)
			count := 1 + rng.Intn(min(3, n-pos))
			sp = mustDelete(t, l, agent, head, pos, count)
		}
		heads[hi] = causal.Frontier{sp.End - 1}
		switch rng.Intn(10) {
		case 0: // fork a new branch
			if len(heads) < 4 {
				heads = append(heads, heads[hi].Clone())
			}
		case 1: // merge two branches
			if len(heads) > 1 {
				oi := rng.Intn(len(heads))
				if oi != hi {
					merged := l.Graph.FrontierOf(append(heads[hi].Clone(), heads[oi]...))
					heads[hi] = merged
					heads = append(heads[:oi], heads[oi+1:]...)
				}
			}
		}
	}
	return l
}

// docAtVersion replays the subgraph at a version by building a sub-log.
// Slow (test-only oracle).
func docAtVersion(t *testing.T, l *oplog.Log, v causal.Frontier) string {
	t.Helper()
	g := l.Graph
	// Collect Events(v) by diffing against the root.
	_, inV := g.Diff(causal.Root, v)
	sub := oplog.New()
	// Map old LV -> new LV.
	lvMap := make(map[causal.LV]causal.LV)
	for _, sp := range inV {
		l.EachOp(sp, func(lv causal.LV, op oplog.Op) bool {
			var parents []causal.LV
			for _, p := range g.ParentsOf(lv) {
				np, ok := lvMap[p]
				if !ok {
					t.Fatalf("docAtVersion: parent %d outside version %v", p, v)
				}
				parents = append(parents, np)
			}
			id := g.IDOf(lv)
			nsp, err := sub.AddRemote(id.Agent, id.Seq, parents, []oplog.Op{op})
			if err != nil {
				t.Fatal(err)
			}
			lvMap[lv] = nsp.Start
			return true
		})
	}
	text, err := ReplayText(sub)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// wireEvent is an event in transferable form for the simulator.
type wireEvent struct {
	id      causal.RawID
	parents []causal.RawID
	op      oplog.Op
}

// TestMultiReplicaConvergence simulates several replicas editing
// concurrently with random delivery, and checks strong eventual
// consistency: after full synchronisation all replicas replay to the
// same text, regardless of their (different) storage orders. It also
// checks requirement (1c) of the strong list specification: a locally
// generated insert lands at its index.
func TestMultiReplicaConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 15; trial++ {
		const nReplicas = 3
		logs := make([]*oplog.Log, nReplicas)
		for i := range logs {
			logs[i] = oplog.New()
		}
		var all []wireEvent
		have := make([]map[causal.RawID]bool, nReplicas)
		for i := range have {
			have[i] = make(map[causal.RawID]bool)
		}
		agents := []string{"alice", "bob", "carol"}

		deliver := func(ri int) {
			// Deliver any events whose parents are all known (causal
			// broadcast).
			progress := true
			for progress {
				progress = false
				for _, ev := range all {
					if have[ri][ev.id] {
						continue
					}
					ok := true
					var parents []causal.LV
					for _, p := range ev.parents {
						lv, known := logs[ri].Graph.LVOf(p)
						if !known {
							ok = false
							break
						}
						parents = append(parents, lv)
					}
					if !ok {
						continue
					}
					if _, err := logs[ri].AddRemote(ev.id.Agent, ev.id.Seq, parents, []oplog.Op{ev.op}); err != nil {
						t.Fatal(err)
					}
					have[ri][ev.id] = true
					progress = true
				}
			}
		}

		for step := 0; step < 120; step++ {
			ri := rng.Intn(nReplicas)
			if rng.Intn(3) == 0 {
				deliver(ri)
				continue
			}
			// Generate a local event.
			doc := []rune(replayOrFail(t, logs[ri]))
			parents := logs[ri].Frontier()
			var rawParents []causal.RawID
			for _, p := range parents {
				rawParents = append(rawParents, logs[ri].Graph.IDOf(p))
			}
			var op oplog.Op
			if len(doc) == 0 || rng.Intn(3) > 0 {
				pos := rng.Intn(len(doc) + 1)
				op = oplog.Op{Kind: oplog.Insert, Pos: pos, Content: rune('a' + rng.Intn(26))}
			} else {
				op = oplog.Op{Kind: oplog.Delete, Pos: rng.Intn(len(doc))}
			}
			id := causal.RawID{Agent: agents[ri], Seq: logs[ri].Graph.SeqEnd(agents[ri])}
			sp, err := logs[ri].AddRemote(id.Agent, id.Seq, parents, []oplog.Op{op})
			if err != nil {
				t.Fatal(err)
			}
			_ = sp
			have[ri][id] = true
			all = append(all, wireEvent{id: id, parents: rawParents, op: op})
			// Strong list spec (1c): the locally generated insert must
			// appear at its index in the replica's new document.
			if op.Kind == oplog.Insert {
				newDoc := []rune(replayOrFail(t, logs[ri]))
				if newDoc[op.Pos] != op.Content {
					t.Fatalf("trial %d: local insert %q at %d landed elsewhere: %q",
						trial, op.Content, op.Pos, string(newDoc))
				}
			}
		}
		// Full sync.
		for ri := 0; ri < nReplicas; ri++ {
			deliver(ri)
			if len(have[ri]) != len(all) {
				t.Fatalf("trial %d: replica %d missing events after sync", trial, ri)
			}
		}
		want := replayOrFail(t, logs[0])
		for ri := 1; ri < nReplicas; ri++ {
			if got := replayOrFail(t, logs[ri]); got != want {
				t.Fatalf("trial %d: replica %d diverged:\n  %q\nvs %q", trial, ri, got, want)
			}
		}
	}
}

// TestIncrementalMatchesFull: applying events chunk by chunk with
// TransformRange produces the same document as one full replay — and a
// Walker that keeps the section a chunk ends inside emits, chunk for
// chunk, the operations that planning each chunk from scratch emits:
// the same spans, not only the same units.
func TestIncrementalMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var continued uint64
	for trial := 0; trial < 10; trial++ {
		l := buildRandomLog(t, rng, 250)
		want := replayOrFail(t, l)

		// Rebuild the log event by event, maintaining the doc
		// incrementally in random chunk sizes.
		inc := oplog.New()
		r := rope.New()
		var kept Walker
		next := causal.LV(0)
		n := causal.LV(l.Len())
		for next < n {
			chunk := causal.LV(1 + rng.Intn(20))
			end := next + chunk
			if end > n {
				end = n
			}
			// Copy events [next, end) into inc.
			l.EachOp(causal.Span{Start: next, End: end}, func(lv causal.LV, op oplog.Op) bool {
				id := l.Graph.IDOf(lv)
				if _, err := inc.AddRemote(id.Agent, id.Seq, l.Graph.ParentsOf(lv), []oplog.Op{op}); err != nil {
					t.Fatal(err)
				}
				return true
			})
			// Parents referenced above are LVs in l; they are valid in inc
			// only because inc's storage order mirrors l's exactly.
			var applyErr error
			var scratch, cont []string
			var fresh Walker
			if err := fresh.TransformRange(inc, next, func(lv causal.LV, op XOp) {
				scratch = append(scratch, fmt.Sprint(lv, op))
				if applyErr == nil {
					applyErr = ApplyXOp(r, op)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if applyErr != nil {
				t.Fatal(applyErr)
			}
			if err := kept.TransformRange(inc, next, func(lv causal.LV, op XOp) {
				cont = append(cont, fmt.Sprint(lv, op))
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cont, scratch) {
				t.Fatalf("trial %d, events [%d,%d): the kept section emitted\n%v\nplanning from scratch\n%v", trial, next, end, cont, scratch)
			}
			next = end
		}
		if got := r.String(); got != want {
			t.Fatalf("trial %d: incremental %q != full %q", trial, got, want)
		}
		continued += kept.Stats().SectionsContinued
	}
	if continued < 50 {
		t.Fatalf("only %d sections were continued", continued)
	}
}

// TestWalkerKeepsEmptiedTracker: a section that closes lets its state go
// but not its tracker, which the next call's section reuses, emptied; a
// tracker that a large section grew past maxKeptBytes is let go with it.
func TestWalkerKeepsEmptiedTracker(t *testing.T) {
	l := oplog.New()
	head, length := causal.Frontier{mustInsert(t, l, "x", nil, 0, "ab").End - 1}, 2
	// bubble adds n keystrokes of "p" at the front of the text and, at the
	// same time, n of "q" at its end, and an event of "x" that merges
	// them: a section from head to a critical version.
	bubble := func(n int) {
		ends := make(causal.Frontier, 2)
		for k, agent := range []string{"p", "q"} {
			at := head
			for i := range n {
				at = causal.Frontier{mustInsert(t, l, agent, at, k*(length+i), agent).End - 1}
			}
			ends[k] = at[0]
		}
		head, length = causal.Frontier{mustInsert(t, l, "x", ends, 0, "m").End - 1}, length+2*n+1
	}
	var w Walker
	transform := func(from causal.LV) {
		t.Helper()
		var got, want []string
		if err := w.TransformRange(l, from, func(lv causal.LV, op XOp) { got = append(got, fmt.Sprint(lv, op)) }); err != nil {
			t.Fatal(err)
		}
		if err := new(Walker).TransformRange(l, from, func(lv causal.LV, op XOp) { want = append(want, fmt.Sprint(lv, op)) }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("from %d the kept tracker emitted\n%v\na new one\n%v", from, got, want)
		}
		if st := w.Stats(); st.RetainedItems != 0 {
			t.Fatalf("from %d: %d items retained after a section that closed", from, st.RetainedItems)
		}
	}
	var kept sectionTracker
	for i := range 5 {
		from := causal.LV(l.Len())
		bubble(3)
		transform(from)
		if w.tr == nil || i > 0 && w.tr != kept {
			t.Fatalf("call %d: tracker %p, was %p; want the emptied one kept", i, w.tr, kept)
		}
		kept = w.tr
	}
	if st := w.Stats(); st.SectionsRebuilt != 5 {
		t.Fatalf("%+v; want 5 sections replayed", st)
	}
	// Every keystroke of "p" is a piece of its own: the ID index alone
	// outgrows the budget.
	from := causal.LV(l.Len())
	bubble(maxKeptBytes / 16)
	transform(from)
	if w.tr != nil {
		t.Fatal("a tracker grown past the budget was kept")
	}
	from = causal.LV(l.Len())
	bubble(3)
	transform(from)
	if w.tr == nil {
		t.Fatal("the small section after it kept no tracker")
	}
}

// TestEmptyLog replays an empty log.
func TestEmptyLog(t *testing.T) {
	l := oplog.New()
	if got := replayOrFail(t, l); got != "" {
		t.Fatalf("empty log replayed to %q", got)
	}
}

// TestTransformRangeNoNewEvents is a no-op when emitFrom == Len.
func TestTransformRangeNoNewEvents(t *testing.T) {
	l := oplog.New()
	mustInsert(t, l, "a", nil, 0, "x")
	if err := new(Walker).TransformRange(l, 1, func(causal.LV, XOp) {
		t.Fatal("unexpected emit")
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDeepBranchMerge: two long branches diverge from a common base and
// merge — the §3.7 scenario.
func TestDeepBranchMerge(t *testing.T) {
	l := oplog.New()
	base := mustInsert(t, l, "base", nil, 0, "0123456789")
	baseHead := causal.Frontier{base.End - 1}

	// Branch A: types at the start.
	headA := baseHead.Clone()
	for i := 0; i < 50; i++ {
		sp := mustInsert(t, l, "a", headA, i, "a")
		headA = causal.Frontier{sp.End - 1}
	}
	// Branch B: types at the end.
	headB := baseHead.Clone()
	for i := 0; i < 50; i++ {
		sp := mustInsert(t, l, "b", headB, 10+i, "b")
		headB = causal.Frontier{sp.End - 1}
	}
	got := replayOrFail(t, l)
	want := strings.Repeat("a", 50) + "0123456789" + strings.Repeat("b", 50)
	if got != want {
		t.Fatalf("merge result:\n got %q\nwant %q", got, want)
	}
}

// TestRetainedBytesPerPiece: the state a merge of long offline branches
// keeps for the next call costs at most 100 bytes a piece: a 32-byte item
// in a leaf about half full, its 16-byte ID index entry and its share of
// the 16-byte delete runs; 83.5 here. With 40-byte items, 32-byte delete
// runs and a buffer of the runs a retreat moves, this history's was 106.
func TestRetainedBytesPerPiece(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := oplog.New()
	// typeOn adds events of words typed and characters deleted at random
	// places to the branch at head, of the given length, and returns its
	// new head and length.
	typeOn := func(agent string, head causal.Frontier, length, events int) (causal.Frontier, int) {
		for l0 := l.Len(); l.Len()-l0 < events; {
			var sp causal.Span
			if length == 0 || rng.Intn(4) > 0 {
				sp = mustInsert(t, l, agent, head, rng.Intn(length+1), strings.Repeat("w", 1+rng.Intn(8)))
				length += sp.Len()
			} else {
				pos := rng.Intn(length)
				sp = mustDelete(t, l, agent, head, pos, 1+rng.Intn(min(3, length-pos)))
				length -= sp.Len()
			}
			head = causal.Frontier{sp.End - 1}
		}
		return head, length
	}
	base, length := typeOn("base", nil, 0, 2400)
	from := causal.LV(l.Len())
	for _, agent := range []string{"a", "b", "c"} {
		typeOn(agent, base, length, 1200)
	}
	var w Walker
	if err := w.TransformRange(l, from, func(causal.LV, XOp) {}); err != nil {
		t.Fatal(err)
	}
	pieces := w.Stats().RetainedItems
	if pieces == 0 {
		t.Fatal("the merge kept no section: three heads are no critical version")
	}
	perPiece := float64(w.RetainedBytes()) / float64(pieces)
	t.Logf("%d pieces kept in %d bytes: %.1f bytes a piece", pieces, w.RetainedBytes(), perPiece)
	if perPiece > 100 {
		t.Fatalf("%.1f bytes a retained piece, want at most 100", perPiece)
	}
}

// TestDelRunRecordSize: a field added to the record shows here first.
func TestDelRunRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(delRun{}); got != 16 {
		t.Fatalf("a delete run is %d bytes, want 16", got)
	}
}

// TestConcurrentDeletesPastStateLimit: an item counts up to math.MaxInt16
// concurrent deletes of its units. A merge that makes one more refuses
// with an error, in both trackers, where the count would wrap.
func TestConcurrentDeletesPastStateLimit(t *testing.T) {
	l := oplog.New()
	mustInsert(t, l, "base", nil, 0, "x")
	// The deletes are merged 256 at a time, and the merges at the end, so
	// that the graph never has more than a few hundred heads.
	var merges []causal.LV
	for i := 0; i < math.MaxInt16; i += 256 {
		var dels []causal.LV
		for j := i; j < min(i+256, math.MaxInt16); j++ {
			dels = append(dels, mustDelete(t, l, fmt.Sprintf("d%d", j), []causal.LV{0}, 0, 1).Start)
		}
		merges = append(merges, mustInsert(t, l, "m", dels, 0, "y").Start)
	}
	merged := mustInsert(t, l, "m", merges, 0, "y").Start
	for name, replay := range map[string]func(*oplog.Log) (string, error){"Tracker": ReplayText, "unitTracker": ReplayTextUnitRef} {
		if text, err := replay(l); err != nil || text != strings.Repeat("y", len(merges)+1) {
			t.Fatalf("%s: %d concurrent deletes of one character replay to %q, %v", name, math.MaxInt16, text, err)
		}
	}
	last := mustDelete(t, l, "past", []causal.LV{0}, 0, 1).Start
	mustInsert(t, l, "m", []causal.LV{merged, last}, 0, "z")
	for name, replay := range map[string]func(*oplog.Log) (string, error){"Tracker": ReplayText, "unitTracker": ReplayTextUnitRef} {
		if text, err := replay(l); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%s: %d concurrent deletes of one character replay to %q, %v", name, math.MaxInt16+1, text, err)
		}
	}
}
