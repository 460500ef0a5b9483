package egwalker

// Tests for the section kept between Apply calls (internal/core/replay.go):
// a replica that continues sections is held to a twin that plans every
// call from a zero walker, and every point where the kept section is let
// go is observed through ReplayStats.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// pair is a replica that keeps sections between calls and its rebuilding
// twin (refApply): same agent, same local edits, same deliveries.
type pair struct {
	t         *testing.T
	got, want *Doc
}

func newPair(t *testing.T) *pair {
	return &pair{t: t, got: NewDoc("me"), want: NewDoc("me")}
}

// apply delivers batch to both and holds them to the same patches, text,
// log, buffer and error.
func (p *pair) apply(batch []Event) error {
	p.t.Helper()
	gotErr, wantErr := applyBoth(p.t, p.got, p.want, batch)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		p.t.Errorf("continuing replica reports %v, rebuilding replica %v", gotErr, wantErr)
	}
	return gotErr
}

func (p *pair) insert(pos int, text string) {
	p.t.Helper()
	if err := p.got.Insert(pos, text); err != nil {
		p.t.Fatal(err)
	}
	if err := p.want.Insert(pos, text); err != nil {
		p.t.Fatal(err)
	}
}

func (p *pair) delete(pos, n int) {
	p.t.Helper()
	if err := p.got.Delete(pos, n); err != nil {
		p.t.Fatal(err)
	}
	if err := p.want.Delete(pos, n); err != nil {
		p.t.Fatal(err)
	}
}

// missing is what src would send dst: Merge's question, not applied.
func missing(t *testing.T, src, dst *Doc) []Event {
	t.Helper()
	evs, err := src.EventsSinceSummary(dst.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// randomEdit makes one local edit: a word, a forward delete or a few
// backspaces.
func randomEdit(rng *rand.Rand, length int, insert func(int, string), del func(int, int)) {
	words := []string{"run ", "length ", "é", "漢字", "x", "🙂 ok ", "graph"}
	switch k := rng.Intn(10); {
	case k < 6 || length == 0:
		insert(rng.Intn(length+1), words[rng.Intn(len(words))])
	case k < 8:
		pos := rng.Intn(length)
		del(pos, 1+rng.Intn(min(4, length-pos)))
	default:
		pos := rng.Intn(length)
		for n := 1 + rng.Intn(3); n > 0 && pos >= 0; n-- {
			del(pos, 1)
			pos--
		}
	}
}

// TestApplyContinuedMatchesRebuilt: a replica types while two peers type,
// pull from it and from each other now and then, and send it what it
// lacks in random cuts — in order, shuffled, twice, or with a batch held
// back so the rest waits in the buffer. The peers that have not pulled for
// a while send events whose parents lie before the section the replica is
// in; a merge of all heads closes a section and the next keystroke of a
// peer reopens one in the same batch. Some rounds end with a malformed
// event in the middle of a section. After every call the continuing
// replica and the rebuilding one must agree on patches, text and error.
func TestApplyContinuedMatchesRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var total ReplayStats
	for round := 0; round < 60 && !t.Failed(); round++ {
		p := newPair(t)
		peers := []*Doc{NewDoc("ann"), NewDoc("bob")}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		var held [][]Event
		deliver := func(evs []Event) {
			for _, batch := range cut(rng, evs) {
				batch = slices.Clone(batch)
				switch rng.Intn(8) {
				case 0:
					held = append(held, batch)
					continue
				case 1:
					rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				case 2:
					batch = append(batch, batch[rng.Intn(len(batch)):]...)
				}
				must(p.apply(batch))
			}
		}
		for s, steps := 0, 40+rng.Intn(120); s < steps; s++ {
			peer := peers[rng.Intn(len(peers))]
			switch k := rng.Intn(12); {
			case k < 3:
				randomEdit(rng, p.got.Len(), p.insert, p.delete)
			case k < 6:
				for n := 1 + rng.Intn(3); n > 0; n-- {
					randomEdit(rng, peer.Len(),
						func(pos int, s string) { must(peer.Insert(pos, s)) },
						func(pos, n int) { must(peer.Delete(pos, n)) })
				}
			case k < 7:
				if p.got.PendingEvents() == 0 { // Merge asks for a version all of whose events it can name
					must(peer.Merge(p.got))
				}
			case k < 8:
				must(peer.Merge(peers[rng.Intn(len(peers))]))
			case k < 11:
				deliver(missing(t, peer, p.got))
			default:
				if len(held) > 0 {
					must(p.apply(held[0]))
					held = held[1:]
				}
			}
		}
		if round%4 == 3 {
			// A malformed event, in a batch with what a peer still had to
			// send: both replicas fail at it, having applied the same
			// patches, and the round ends there — the history is poisoned.
			evs := missing(t, peers[0], p.got)
			bad := Event{ID: EventID{Agent: "mallory", Seq: 0}, Parents: p.got.Version(), Insert: true, Pos: p.got.Len() + 50, Content: 'x'}
			if len(evs) > 0 {
				bad.Parents = []EventID{evs[len(evs)/2].ID}
			}
			if err := p.apply(append(evs, bad)); err == nil {
				t.Fatalf("round %d: malformed event accepted", round)
			}
			if st := p.got.ReplayStats(); st.RetainedItems != 0 {
				t.Fatalf("round %d: a failed merge kept its section", round)
			}
			continue
		}
		for _, batch := range held {
			must(p.apply(batch))
		}
		for _, peer := range peers {
			must(p.apply(missing(t, peer, p.got)))
		}
		if p.got.PendingEvents() != 0 {
			t.Fatalf("round %d: %d events still buffered", round, p.got.PendingEvents())
		}
		for _, peer := range peers {
			must(peer.Merge(p.got))
			if peer.Fingerprint() != p.got.Fingerprint() {
				t.Fatalf("round %d: %s ended with %q, the replica with %q", round, peer.Agent(), peer.Text(), p.got.Text())
			}
		}
		st := p.got.ReplayStats()
		total.SectionsContinued += st.SectionsContinued
		total.SectionsRebuilt += st.SectionsRebuilt
		total.EventsReplayedSilently += st.EventsReplayedSilently
	}
	// The sessions must have been ones in which sections are kept, let go
	// and rebuilt, and local edits replayed into them.
	if total.SectionsContinued < 200 || total.SectionsRebuilt < 50 || total.EventsReplayedSilently == 0 {
		t.Fatalf("the sessions exercised too little: %+v", total)
	}
}

// bubble is a pair with a shared base and a peer that typed n runs
// offline, concurrent with one local word: the replica is about to merge
// an open bubble block by block.
type bubble struct {
	*pair
	branch []Event // the peer's events, in order
}

func openBubble(t *testing.T, runs int) *bubble {
	t.Helper()
	p := newPair(t)
	p.insert(0, "a shared base. ")
	peer, err := p.got.Fork("peer")
	if err != nil {
		t.Fatal(err)
	}
	base := p.got.Version()
	for i := 0; i < runs; i++ {
		// Alternate ends so that every call is a run of its own.
		pos := 0
		if i%2 == 1 {
			pos = peer.Len()
		}
		if err := peer.Insert(pos, "offline "); err != nil {
			t.Fatal(err)
		}
	}
	p.insert(p.got.Len(), "local")
	branch, err := peer.EventsSince(base)
	if err != nil {
		t.Fatal(err)
	}
	return &bubble{pair: p, branch: branch}
}

// stats returns how the continuing replica's counters moved over fn.
func (p *pair) stats(fn func()) ReplayStats {
	before := p.got.ReplayStats()
	fn()
	return statsSince(before, p.got.ReplayStats())
}

// statsSince is after with the counters counted from before; what is
// retained is after's.
func statsSince(before, after ReplayStats) ReplayStats {
	after.SectionsContinued -= before.SectionsContinued
	after.SectionsRebuilt -= before.SectionsRebuilt
	after.EventsReplayed -= before.EventsReplayed
	after.EventsReplayedSilently -= before.EventsReplayedSilently
	after.GraphEntriesVisited -= before.GraphEntriesVisited
	return after
}

func (p *pair) mustApply(batch []Event) {
	p.t.Helper()
	if err := p.apply(batch); err != nil {
		p.t.Fatal(err)
	}
}

// TestSectionKeptAndContinued: the second block of a bubble continues the
// section the first one opened, replaying the local edits typed in between
// without emitting them and nothing else.
func TestSectionKeptAndContinued(t *testing.T) {
	b := openBubble(t, 6)
	first := b.stats(func() { b.mustApply(b.branch[:16]) })
	if first.SectionsRebuilt != 1 || first.SectionsContinued != 0 || first.RetainedItems == 0 {
		t.Fatalf("opening the bubble: %+v; want one section built and kept", first)
	}
	if first.EventsReplayedSilently != 5 { // "local"
		t.Fatalf("opening the bubble replayed %d events silently, want the 5 local ones", first.EventsReplayedSilently)
	}
	b.insert(0, "abc")
	b.delete(1, 1)
	second := b.stats(func() { b.mustApply(b.branch[16:32]) })
	if second.SectionsContinued != 1 || second.SectionsRebuilt != 0 {
		t.Fatalf("second block: %+v; want the section continued", second)
	}
	if second.EventsReplayedSilently != 4 || second.EventsReplayed != 4+16 {
		t.Fatalf("second block replayed %d events, %d silently; want 20 and the 4 typed since", second.EventsReplayed, second.EventsReplayedSilently)
	}
	if second.RetainedItems <= first.RetainedItems {
		t.Fatalf("retained items %d after the first block, %d after the second", first.RetainedItems, second.RetainedItems)
	}
	// A fork, a loaded copy and a historical read carry no section.
	f, err := b.got.Fork("f")
	if err != nil {
		t.Fatal(err)
	}
	if st := f.ReplayStats(); st != (ReplayStats{}) {
		t.Fatalf("a fork starts with %+v", st)
	}
	if _, err := b.got.TextAt(b.got.Version()); err != nil {
		t.Fatal(err)
	}
	if st := b.got.ReplayStats(); st.RetainedItems != second.RetainedItems {
		t.Fatalf("TextAt changed the kept section: %d items, was %d", st.RetainedItems, second.RetainedItems)
	}
}

// TestSectionDroppedAtCriticalFrontier: the block that brings the last of
// the branch together with an event merging both heads ends the call at a
// critical version, and nothing is kept; so does a linear extension, which
// never reaches the planner.
func TestSectionDroppedAtCriticalFrontier(t *testing.T) {
	b := openBubble(t, 4)
	b.mustApply(b.branch[:10])
	last := b.branch[len(b.branch)-1].ID
	merge := Event{ID: EventID{Agent: "cy", Seq: 0}, Parents: append(b.got.Version()[:1:1], last), Insert: true, Pos: 0, Content: 'm'}
	// The local head is the first of the two; the other is the block's end.
	if got := b.got.Version(); len(got) != 2 || got[0].Agent != "me" {
		t.Fatalf("version %v, want the local head first", got)
	}
	st := b.stats(func() { b.mustApply(append(slices.Clone(b.branch[10:]), merge)) })
	if st.SectionsContinued != 1 || st.RetainedItems != 0 {
		t.Fatalf("closing block: %+v; want the section continued and then let go", st)
	}

	// Open another, then close it with a local keystroke and extend that
	// linearly: the fast path lets the section go.
	b2 := openBubble(t, 4)
	b2.mustApply(b2.branch)
	if b2.got.ReplayStats().RetainedItems == 0 {
		t.Fatal("no section kept")
	}
	b2.insert(0, "x")
	head := b2.got.Version()
	st = b2.stats(func() {
		b2.mustApply([]Event{{ID: EventID{Agent: "cy", Seq: 0}, Parents: head, Insert: true, Pos: 0, Content: 'y'}})
	})
	if st != (ReplayStats{}) {
		t.Fatalf("linear extension: %+v; want no planning and nothing kept", st)
	}
}

// TestSectionDroppedWhenBaseStopsBeingCritical: an event arrives whose
// parent lies before the base of the kept section. The base is no longer
// critical, so the section is planned again from the critical version
// before it.
func TestSectionDroppedWhenBaseStopsBeingCritical(t *testing.T) {
	b := openBubble(t, 4)
	b.mustApply(b.branch[:10])
	early := Event{ID: EventID{Agent: "zed", Seq: 0}, Parents: []EventID{{Agent: "me", Seq: 3}}, Insert: true, Pos: 2, Content: 'z'}
	st := b.stats(func() { b.mustApply(append([]Event{early}, b.branch[10:20]...)) })
	if st.SectionsContinued != 0 || st.SectionsRebuilt != 1 {
		t.Fatalf("%+v; want the section rebuilt from an earlier base", st)
	}
	if want := uint64(b.got.NumEvents() - 4); st.EventsReplayed != want {
		t.Fatalf("replayed %d events, want %d: everything after me/3", st.EventsReplayed, want)
	}
	// The rebuilt section is kept in its turn.
	st = b.stats(func() { b.mustApply(b.branch[20:]) })
	if st.SectionsContinued != 1 || st.SectionsRebuilt != 0 {
		t.Fatalf("next block: %+v; want the rebuilt section continued", st)
	}
}

// TestSectionClosedAndReopenedInOneBatch: one batch ends the bubble with a
// merge of its heads, goes on linearly, and then forks again. The kept
// section is continued to its end, the linear stretch needs no state, and
// the section the batch ends inside is a new one, kept in its turn.
func TestSectionClosedAndReopenedInOneBatch(t *testing.T) {
	b := openBubble(t, 4)
	b.mustApply(b.branch[:10])
	cy := func(seq int) EventID { return EventID{Agent: "cy", Seq: seq} }
	heads := append(b.got.Version()[:1:1], b.branch[len(b.branch)-1].ID)
	batch := append(slices.Clone(b.branch[10:]),
		Event{ID: cy(0), Parents: heads, Insert: true, Pos: 0, Content: 'm'},
		Event{ID: cy(1), Parents: []EventID{cy(0)}, Insert: true, Pos: 1, Content: 'n'},
		Event{ID: cy(2), Parents: []EventID{cy(1)}, Insert: true, Pos: 2, Content: 'o'},
		Event{ID: EventID{Agent: "dan", Seq: 0}, Parents: []EventID{cy(1)}, Insert: true, Pos: 0, Content: 'd'},
	)
	st := b.stats(func() { b.mustApply(batch) })
	if st.SectionsContinued != 1 || st.SectionsRebuilt != 1 || st.RetainedItems == 0 {
		t.Fatalf("%+v; want one section continued, one built and kept", st)
	}
	if st.RetainedItems > 4 {
		t.Fatalf("the kept section holds %d items; the bubble's were to be let go", st.RetainedItems)
	}
	st = b.stats(func() {
		b.mustApply([]Event{{ID: cy(3), Parents: []EventID{cy(2)}, Insert: true, Pos: 3, Content: 'p'}})
	})
	if st.SectionsContinued != 1 || st.EventsReplayed != 1 {
		t.Fatalf("next keystroke: %+v; want the new section continued by one event", st)
	}
}

// TestSectionDroppedOnError: a rejected event and a malformed one both
// leave nothing kept, whatever was kept before.
func TestSectionDroppedOnError(t *testing.T) {
	b := openBubble(t, 4)
	b.mustApply(b.branch[:10])
	if b.got.ReplayStats().RetainedItems == 0 {
		t.Fatal("no section kept")
	}
	rejected := Event{ID: EventID{Agent: "mallory", Seq: -1}, Insert: true, Content: 'x'}
	if err := b.apply(append(slices.Clone(b.branch[10:14]), rejected)); err == nil {
		t.Fatal("negative sequence number accepted")
	}
	if st := b.got.ReplayStats(); st.RetainedItems != 0 {
		t.Fatalf("after a rejected event: %d items kept", st.RetainedItems)
	}
	st := b.stats(func() { b.mustApply(b.branch[14:20]) })
	if st.SectionsRebuilt != 1 || st.RetainedItems == 0 {
		t.Fatalf("after the error: %+v; want the section rebuilt and kept again", st)
	}
	malformed := Event{ID: EventID{Agent: "mallory", Seq: 0}, Parents: []EventID{b.branch[19].ID}, Insert: true, Pos: 9999, Content: 'x'}
	if err := b.apply(append(slices.Clone(b.branch[20:]), malformed)); err == nil {
		t.Fatal("malformed event accepted")
	}
	if st := b.got.ReplayStats(); st.RetainedItems != 0 {
		t.Fatalf("after a malformed event: %d items kept", st.RetainedItems)
	}
}

// TestSectionDroppedPastItemBudget: a bubble whose internal state outgrows
// the budget is not kept, and the next call plans it from its base again.
func TestSectionDroppedPastItemBudget(t *testing.T) {
	b := openBubble(t, 2)
	b.mustApply(b.branch)
	kept := b.got.ReplayStats().RetainedItems
	if kept == 0 {
		t.Fatal("no section kept")
	}
	// Every keystroke at the front of the text is a record of its own.
	const keystrokes = 1<<16 + 8
	for i := 0; i < keystrokes; i++ {
		if err := b.got.Insert(0, "k"); err != nil {
			t.Fatal(err)
		}
	}
	remote := func(seq int) []Event {
		ev := Event{ID: EventID{Agent: "peer2", Seq: seq}, Parents: []EventID{b.branch[len(b.branch)-1].ID}, Insert: true, Pos: 0, Content: 'R'}
		if seq > 0 {
			ev.Parents = []EventID{{Agent: "peer2", Seq: seq - 1}}
		}
		return []Event{ev}
	}
	apply := func(evs []Event) ReplayStats {
		return b.stats(func() {
			if _, err := b.got.Apply(evs); err != nil {
				t.Fatal(err)
			}
		})
	}
	st := apply(remote(0))
	if st.SectionsContinued != 1 || st.EventsReplayedSilently != keystrokes || st.RetainedItems != 0 {
		t.Fatalf("%+v; want the section continued through %d keystrokes and then let go", st, keystrokes)
	}
	st = apply(remote(1))
	if st.SectionsContinued != 0 || st.SectionsRebuilt != 1 || st.RetainedItems != 0 {
		t.Fatalf("next call: %+v; want the bubble planned from its base and not kept", st)
	}
	if got := strings.Count(b.got.Text(), "R"); got != 2 {
		t.Fatalf("%d of the 2 remote keystrokes are in the text", got)
	}
}

// TestEmptiedTrackerKeptBetweenApplies: a server's replica applies, call
// after call, a batch in which two writers each typed a key at once and
// one of them then merged both and typed on — a small bubble closed by a
// linear stretch. Each call replays a section from its base and ends at a
// critical version, so no state is kept between the calls; the emptied
// tracker is, and the replica builds it once. A call that built it afresh
// — the tracker, its tree, a leaf, the indexes and the scratch arrays —
// took 27 objects.
func TestEmptiedTrackerKeptBetweenApplies(t *testing.T) {
	const calls = 50
	srv := NewDoc("srv")
	ann, bob := NewDoc("ann"), NewDoc("bob")
	batches := make([][]Event, calls+1) // AllocsPerRun runs once more to warm up
	for i := range batches {
		v := ann.Version()
		for _, step := range []error{ann.Insert(0, "a"), bob.Insert(bob.Len(), "b"), ann.Merge(bob), ann.Insert(1, "typed on "), bob.Merge(ann)} {
			if step != nil {
				t.Fatal(step)
			}
		}
		var err error
		if batches[i], err = ann.EventsSince(v); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(calls, func() {
		before := srv.ReplayStats()
		if _, err := srv.Apply(batches[i]); err != nil {
			t.Fatal(err)
		}
		i++
		if st := statsSince(before, srv.ReplayStats()); st.SectionsRebuilt != 1 || st.RetainedItems != 0 {
			t.Fatalf("call %d: %+v; want one section replayed from its base and no state kept", i, st)
		}
	})
	if srv.Text() != ann.Text() {
		t.Fatalf("the replica reads %q, the writer %q", srv.Text(), ann.Text())
	}
	// What is left is the call's own, 8 objects: the patches and their
	// string, the sink, its error and the emit closure the planner is
	// handed, and the text's leaves and the log's arrays growing now and
	// then.
	t.Logf("%.2f objects per Apply", allocs)
	if allocs > 10 && !raceEnabled {
		t.Errorf("an Apply of a closed bubble took %.2f objects; want at most 10 (the tracker built once)", allocs)
	}
	if b := srv.MemStats().RetainedBytes; b == 0 || b > 32<<10 {
		t.Errorf("the replica keeps %d bytes of emptied tracker; want some, at most 32 KB", b)
	}
}

// TestOpenBubbleApplyCostIsPerBlock: what the next 64-event block of an
// offline branch costs to merge does not depend on how much of the branch
// has been merged already — 1 000, 10 000 or 100 000 events, all in one
// open bubble with a local edit. Counted, not timed: events put through
// the tracker, graph entries the planner visited, records the tracker
// grew by, binary searches for an entry of the graph or a span of the
// log, and allocations.
func TestOpenBubbleApplyCostIsPerBlock(t *testing.T) {
	type cost struct {
		stats  ReplayStats
		grown  int
		allocs uint64
		// searches of the graph and of the log
		graph, log uint64
	}
	measure := func(events int) cost {
		d, next := openBubbleDoc(t, events)
		if err := d.Insert(0, "ab"); err != nil {
			t.Fatal(err)
		}
		block := next()
		before := d.ReplayStats()
		graph, log := d.log.Graph.Searches(), d.log.Searches()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := d.Apply(block)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		after := d.ReplayStats()
		c := cost{stats: statsSince(before, after), grown: after.RetainedItems - before.RetainedItems, allocs: m1.Mallocs - m0.Mallocs,
			graph: d.log.Graph.Searches() - graph, log: d.log.Searches() - log}
		c.stats.RetainedItems = 0 // grown says it
		return c
	}
	small := measure(1_000)
	if small.stats.SectionsContinued != 1 || small.stats.SectionsRebuilt != 0 || small.stats.EventsReplayed != 64+2 || small.stats.GraphEntriesVisited > 64 {
		t.Fatalf("at 1k: %+v; want the section continued by the block and the 2 local events", small.stats)
	}
	// The block is a dozen entries of the graph, each hanging on one or two
	// others, and the walk from the local edit to the block's first event
	// passes the bubble's shared history on its way down to the local
	// edit's other parent. That walk used to look up the entry of every
	// event it popped — 429 binary searches for this block at 1k events,
	// 4 145 at 10k, 41 197 at 100k — then searched for the heads it
	// started from (23 in all), and now starts from the entries the
	// tracker and the admit already hold: 3 searches are left, the walk of
	// the block's entries and what the tie-break between concurrent
	// inserts looks up. The runs of the log it moves over it finds from
	// where it last was (18 searches before).
	t.Logf("at 1k: %d graph searches, %d log searches for %d graph entries", small.graph, small.log, small.stats.GraphEntriesVisited)
	if small.graph > 3 || small.log > 2 {
		t.Errorf("at 1k the block cost %d searches of the graph and %d of the log; want at most 3 and 2", small.graph, small.log)
	}
	for _, n := range []int{10_000, 100_000} {
		c := measure(n)
		if c.graph != small.graph || c.log != small.log {
			t.Errorf("at %d events: %d searches of the graph and %d of the log; at 1k %d and %d", n, c.graph, c.log, small.graph, small.log)
		}
		if c.stats != small.stats || c.grown != small.grown {
			t.Errorf("at %d events: %+v and %d records grown; at 1k %+v and %d", n, c.stats, c.grown, small.stats, small.grown)
		}
		// A block that splits a leaf more or grows a slice takes a few
		// more; one that walked the bubble would take thousands.
		if c.allocs > 2*small.allocs {
			t.Errorf("at %d events the block took %d allocations, at 1k %d", n, c.allocs, small.allocs)
		}
	}
}

// openBubbleDoc returns a replica that has typed one word concurrently
// with an offline branch and merged the first events events of it, in
// 64-event blocks, and a function returning the branch's next block. Two
// peers type the branch in turns, words at alternating ends of the text
// with a backspace now and then: a block is a dozen runs and as many
// entries of the graph, so a planner that looked for critical versions
// from the bubble's base would walk thousands of them.
func openBubbleDoc(tb testing.TB, events int) (*Doc, func() []Event) {
	tb.Helper()
	const block = 64
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	d := NewDoc("me")
	must(d.Insert(0, "a shared base. "))
	base := d.Version()
	var peers [2]*Doc
	for i, name := range []string{"ann", "bob"} {
		var err error
		peers[i], err = d.Fork(name)
		must(err)
	}
	must(d.Insert(d.Len(), "local"))
	total := events + 10*block // the blocks a caller may still ask for
	for i := 0; peers[0].NumEvents() < len("a shared base. ")+total; i++ {
		peer := peers[i%2]
		must(peer.Merge(peers[1-i%2]))
		switch {
		case i%7 == 6:
			must(peer.Delete(peer.Len()-1, 1))
		case i%4 < 2:
			must(peer.Insert(peer.Len(), "words "))
		default:
			must(peer.Insert(0, "more "))
		}
	}
	must(peers[0].Merge(peers[1]))
	branch, err := peers[0].EventsSince(base)
	must(err)
	at := 0
	next := func() []Event {
		b := branch[at : at+block]
		at += block
		return b
	}
	for at < events {
		_, err := d.Apply(next())
		must(err)
	}
	return d, next
}

// TestMergeSearchesPerApply: one Apply of a two-author history that never
// has a critical version — each author sees the other's turns one turn
// late, and each turn's run hangs on both — makes the same few searches
// for a graph entry at ~400 entries as at ~4 000. The admit hands the
// graph the entries its lookups found, the tracker keeps the entries of
// its prepare version, and a diff or a dominator walk starts from those.
// It used to be about seven searches per entry: 2 783 at 399 entries,
// 27 983 at 3 999.
func TestMergeSearchesPerApply(t *testing.T) {
	measure := func(turns int) (searches uint64, entries int) {
		docs := [2]*Doc{NewDoc("ann"), NewDoc("bob")}
		var own [2][][]Event // each author's turns, in order
		var seen [2]int      // how many of the other's turns each has merged
		for i := 0; i < turns; i++ {
			me, other := i%2, 1-i%2
			d := docs[me]
			for ; seen[me] < len(own[other])-1; seen[me]++ {
				if _, err := d.Apply(own[other][seen[me]]); err != nil {
					t.Fatal(err)
				}
			}
			before := d.Version()
			pos := 0 // ann types at the front, bob at the end
			if me == 1 {
				pos = d.Len()
			}
			if err := d.Insert(pos, "word "); err != nil {
				t.Fatal(err)
			}
			evs, err := d.EventsSince(before)
			if err != nil {
				t.Fatal(err)
			}
			own[me] = append(own[me], evs)
		}
		if err := docs[0].Merge(docs[1]); err != nil {
			t.Fatal(err)
		}
		got := NewDoc("me")
		before := got.log.Graph.Searches()
		if _, err := got.Apply(docs[0].Events()); err != nil {
			t.Fatal(err)
		}
		searches = got.log.Graph.Searches() - before
		if got.Text() != docs[0].Text() {
			t.Fatalf("%d turns: the merge differs from the authors' text", turns)
		}
		if st := got.ReplayStats(); st.SectionsRebuilt != 1 {
			t.Fatalf("%d turns: %+v; want one concurrent section", turns, st)
		}
		return searches, got.log.Graph.Entries()
	}
	small, smallEntries := measure(400)
	large, largeEntries := measure(4000)
	t.Logf("%d graph searches at %d entries, %d at %d", small, smallEntries, large, largeEntries)
	if large != small || small > 3 {
		t.Errorf("%d graph searches at %d entries, %d at %d; want the same few at both", small, smallEntries, large, largeEntries)
	}
}
