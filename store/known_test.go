package store

import (
	"slices"
	"strings"
	"testing"

	"egwalker"
)

func TestIDSetRunMerging(t *testing.T) {
	s := newIDSet()
	s.addRun("a", 0, 5)  // [0,5)
	s.addRun("a", 10, 5) // [10,15)
	s.addRun("a", 5, 5)  // bridges: [0,15)
	if got := s.runs["a"]; len(got) != 1 || got[0] != (seqRun{0, 15}) {
		t.Fatalf("runs = %+v, want one [0,15)", got)
	}
	if s.numEvents() != 15 {
		t.Fatalf("numEvents = %d, want 15", s.numEvents())
	}
	s.addRun("a", 3, 4) // fully covered, no change
	if got := s.runs["a"]; len(got) != 1 || got[0] != (seqRun{0, 15}) {
		t.Fatalf("runs after covered add = %+v", got)
	}
	s.addRun("b", 2, 1)
	if !s.has("b", 2) || s.has("b", 1) {
		t.Fatal("has() wrong for agent b")
	}
	if s.has("a", 15) || !s.has("a", 14) {
		t.Fatal("has() wrong at run boundary")
	}
}

// TestIDSetAddRunInPlace: an agent typing on extends its last run, which
// is every live ingest; that, a covered add and a merge of neighbours
// must not allocate (addRun used to rebuild the agent's slice on every
// call).
func TestIDSetAddRunInPlace(t *testing.T) {
	s := newIDSet()
	s.addRun("a", 0, 5)
	next := 5
	if allocs := testing.AllocsPerRun(100, func() {
		s.addRun("a", next, 3)
		next += 3
	}); allocs != 0 {
		t.Fatalf("extending an agent's last run: %.1f allocations, want 0", allocs)
	}
	if got := s.runs["a"]; len(got) != 1 || got[0] != (seqRun{0, next}) {
		t.Fatalf("runs = %+v, want one [0,%d)", got, next)
	}
	s.addRun("a", next+10, 5)
	s.addRun("a", next+20, 5)
	s.addRun("a", next+30, 5) // [0,next) [next+10,+15) [next+20,+25) [next+30,+35)
	if allocs := testing.AllocsPerRun(1, func() {
		s.addRun("a", 2, 2)         // covered
		s.addRun("a", next+12, 8)   // merges the middle two; one run follows them
		s.addRun("a", next-1, 11)   // and those into the first
		s.addRun("a", next+34, 100) // extends the last
	}); allocs != 0 {
		t.Fatalf("covered add, merges and extension: %.1f allocations, want 0", allocs)
	}
	want := []seqRun{{0, next + 25}, {next + 30, next + 134}}
	if got := s.runs["a"]; !slices.Equal(got, want) {
		t.Fatalf("runs = %+v, want %+v", got, want)
	}
	// An insert between two runs may grow the slice, and must keep order.
	s.addRun("b", 10, 2)
	s.addRun("b", 20, 2)
	s.addRun("b", 0, 2)
	s.addRun("b", 15, 2)
	want = []seqRun{{0, 2}, {10, 12}, {15, 17}, {20, 22}}
	if got := s.runs["b"]; !slices.Equal(got, want) {
		t.Fatalf("runs = %+v, want %+v", got, want)
	}
}

func TestIDSetCountNew(t *testing.T) {
	s := newIDSet()
	s.addRun("a", 5, 5) // [5,10)
	cases := []struct {
		seq, n, want int
	}{
		{0, 5, 5},   // entirely before
		{5, 5, 0},   // exact cover
		{3, 4, 2},   // overlaps front
		{8, 4, 2},   // overlaps back
		{0, 20, 15}, // superset
		{10, 1, 1},  // adjacent after
	}
	for _, c := range cases {
		if got := s.countNew("a", c.seq, c.n); got != c.want {
			t.Errorf("countNew(a, %d, %d) = %d, want %d", c.seq, c.n, got, c.want)
		}
	}
}

// TestOpenLazyJournalRoundTrip: a document written eagerly reopens
// journal-only — event count and block cut available without
// materializing — and materializes to the identical text on demand;
// dematerialize drops back without losing anything.
func TestOpenLazyJournalRoundTrip(t *testing.T) {
	root := t.TempDir()
	ds := mustOpen(t, root, "lazy", Options{})
	text := strings.Repeat("abcdefg ", 20)
	for i, r := range text {
		if err := ds.Insert(i, string(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	lz, err := OpenLazy(root, "lazy", "tester", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	if lz.loadState().inMemory() {
		t.Fatal("OpenLazy materialized the document")
	}
	if n := lz.NumEvents(); n != len(text) {
		t.Fatalf("journal-only NumEvents = %d, want %d", n, len(text))
	}
	if lz.loadState().inMemory() {
		t.Fatal("NumEvents materialized the document")
	}
	cut, ok := lz.CutForServe()
	if !ok {
		t.Fatal("journal-only store not block-servable")
	}
	if cut.events != len(text) {
		t.Fatalf("cut covers %d events, want %d", cut.events, len(text))
	}
	if got := lz.Text(); got != text {
		t.Fatalf("materialized text = %q, want %q", got, text)
	}
	if !lz.loadState().inMemory() {
		t.Fatal("Text did not materialize")
	}
	if err := lz.dematerialize(); err != nil {
		t.Fatal(err)
	}
	if lz.loadState().inMemory() {
		t.Fatal("dematerialize left the doc in memory")
	}
	if n := lz.NumEvents(); n != len(text) {
		t.Fatalf("post-demat NumEvents = %d, want %d", n, len(text))
	}
	if got := lz.Text(); got != text {
		t.Fatalf("re-materialized text = %q, want %q", got, text)
	}
}

// TestOpenLazyAfterCompaction: the journal scan works through a compact
// snapshot plus WAL tail.
func TestOpenLazyAfterCompaction(t *testing.T) {
	root := t.TempDir()
	ds := mustOpen(t, root, "snap", Options{})
	for i := 0; i < 60; i++ {
		if err := ds.Insert(i, "s"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 90; i++ {
		if err := ds.Insert(i, "t"); err != nil {
			t.Fatal(err)
		}
	}
	want := ds.Text()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	lz, err := OpenLazy(root, "snap", "tester", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	if lz.loadState().inMemory() {
		t.Fatal("OpenLazy materialized despite compact snapshot")
	}
	if n := lz.NumEvents(); n != 90 {
		t.Fatalf("NumEvents = %d, want 90", n)
	}
	if got := lz.Text(); got != want {
		t.Fatalf("text = %q, want %q", got, want)
	}
}

// TestIngestBatchJournalOnly: compact uploads journal verbatim without
// materializing; duplicates are deduplicated by the ID index; a batch
// with unknown parents forces materialization instead of corrupting
// the journal.
func TestIngestBatchJournalOnly(t *testing.T) {
	root := t.TempDir()

	seed := egwalker.NewDoc("writer")
	for i := 0; i < 40; i++ {
		if err := seed.Insert(i, "j"); err != nil {
			t.Fatal(err)
		}
	}
	evs := seed.Events()
	raw, err := egwalker.MarshalEventsCompact(evs)
	if err != nil {
		t.Fatal(err)
	}

	ds, err := OpenLazy(root, "ingest", "tester", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	fresh, err := ds.IngestBatch(evs, raw)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != len(evs) {
		t.Fatalf("fresh = %d, want %d", fresh, len(evs))
	}
	if ds.loadState().inMemory() {
		t.Fatal("compact ingest materialized the document")
	}
	fresh, err = ds.IngestBatch(evs, raw)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != 0 {
		t.Fatalf("duplicate ingest reported %d fresh events", fresh)
	}
	if ds.NumEvents() != len(evs) {
		t.Fatalf("NumEvents = %d, want %d", ds.NumEvents(), len(evs))
	}

	// A batch whose parents the journal has never seen: the store must
	// materialize and let the doc arbitrate rather than journaling a
	// causally dangling batch.
	other := egwalker.NewDoc("other")
	if err := other.Insert(0, "zz"); err != nil {
		t.Fatal(err)
	}
	oevs := other.Events()
	gap := oevs[len(oevs)-1:]
	if _, err := ds.IngestBatch(gap, nil); err != nil {
		t.Fatal(err)
	}
	if !ds.loadState().inMemory() {
		t.Fatal("causal-gap ingest did not materialize")
	}
	if got, want := ds.Text(), seed.Text(); got != want {
		t.Fatalf("text after gap ingest = %q, want %q", got, want)
	}
}

// TestDematerializeKnowsWhatTheDocHeld: the known-ID set dematerialize
// builds from the document's summary holds every event the document did,
// from several agents in runs that interleave: a re-upload of them is a
// duplicate, a batch past them is admitted, both without materializing,
// and the event count is the document's.
func TestDematerializeKnowsWhatTheDocHeld(t *testing.T) {
	ds := mustOpen(t, t.TempDir(), "demat", Options{})
	defer ds.Close()
	ann, bob := egwalker.NewDoc("ann"), egwalker.NewDoc("bob")
	for i := range 6 {
		if err := ann.Insert(ann.Len(), "ann "); err != nil {
			t.Fatal(err)
		}
		if err := bob.Insert(0, "bob "); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := ann.Merge(bob); err != nil {
				t.Fatal(err)
			}
			if err := bob.Merge(ann); err != nil {
				t.Fatal(err)
			}
		}
	}
	held := ann.Events()
	if _, err := ds.Apply(held); err != nil {
		t.Fatal(err)
	}
	if err := ds.Insert(0, "local "); err != nil {
		t.Fatal(err)
	}
	want := ds.Doc().NumEvents()
	if err := ds.dematerialize(); err != nil {
		t.Fatal(err)
	}
	if ds.loadState().inMemory() {
		t.Fatal("dematerialize left the doc in memory")
	}
	if n := ds.NumEvents(); n != want {
		t.Fatalf("NumEvents after dematerialize = %d, the document held %d", n, want)
	}

	raw, err := egwalker.MarshalEventsCompact(held)
	if err != nil {
		t.Fatal(err)
	}
	if fresh, err := ds.IngestBatch(held, raw); err != nil || fresh != 0 {
		t.Fatalf("re-upload of held events: %d fresh, %v; want 0, nil", fresh, err)
	}
	before := ann.Version()
	if err := ann.Insert(0, "more"); err != nil {
		t.Fatal(err)
	}
	next, err := ann.EventsSince(before)
	if err != nil {
		t.Fatal(err)
	}
	if raw, err = egwalker.MarshalEventsCompact(next); err != nil {
		t.Fatal(err)
	}
	if fresh, err := ds.IngestBatch(next, raw); err != nil || fresh != len(next) {
		t.Fatalf("new batch: %d fresh, %v; want %d, nil", fresh, err, len(next))
	}
	if ds.loadState().inMemory() {
		t.Fatal("ingesting after dematerialize materialized the document")
	}
	if n := ds.NumEvents(); n != want+len(next) {
		t.Fatalf("NumEvents = %d, want %d", n, want+len(next))
	}
	if err := ds.Materialize(); err != nil {
		t.Fatal(err)
	}
	if got := ds.Doc().NumEvents(); got != want+len(next) {
		t.Fatalf("materialized document holds %d events, want %d", got, want+len(next))
	}
}
