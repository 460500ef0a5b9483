package egwalker

import (
	"reflect"
	"testing"
)

// summaryIDSet expands a summary into the explicit event-ID set, the
// brute-force reference the run-length form must match.
func summaryIDSet(s VersionSummary) map[EventID]bool {
	set := make(map[EventID]bool)
	for agent, ranges := range s {
		for _, r := range ranges {
			for seq := r.Start; seq < r.End; seq++ {
				set[EventID{Agent: agent, Seq: seq}] = true
			}
		}
	}
	return set
}

func eventIDSet(events []Event) map[EventID]bool {
	set := make(map[EventID]bool)
	for _, ev := range events {
		set[ev.ID] = true
	}
	return set
}

// divergedPair builds two replicas with overlapping-but-different
// histories: a shared prefix, then independent edits on each side.
func divergedPair(t *testing.T) (*Doc, *Doc) {
	t.Helper()
	a := NewDoc("alice")
	if err := a.Insert(0, "shared prefix "); err != nil {
		t.Fatal(err)
	}
	b, err := a.Fork("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(a.Len(), "alice's tail"); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(b.Len(), "bob!"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(0, 3); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSummaryMatchesEventSet(t *testing.T) {
	a, b := divergedPair(t)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Doc{a, b} {
		s := d.Summary()
		if err := s.Validate(); err != nil {
			t.Fatalf("Summary failed Validate: %v", err)
		}
		want := eventIDSet(d.Events())
		if got := summaryIDSet(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("summary set %v != event set %v", got, want)
		}
		if s.NumEvents() != d.NumEvents() {
			t.Fatalf("NumEvents %d != %d", s.NumEvents(), d.NumEvents())
		}
		for id := range want {
			if !s.Contains(id) {
				t.Fatalf("summary missing %v", id)
			}
		}
		if s.Contains(EventID{Agent: "alice", Seq: 1 << 30}) {
			t.Fatal("summary contains an event far past the history")
		}
	}
}

func TestIntersectSummaryBruteForce(t *testing.T) {
	a, b := divergedPair(t)
	sa, sb := a.Summary(), b.Summary()
	inter := IntersectSummary(sa, sb)
	if err := inter.Validate(); err != nil {
		t.Fatalf("intersection failed Validate: %v", err)
	}
	setA, setB := summaryIDSet(sa), summaryIDSet(sb)
	want := make(map[EventID]bool)
	for id := range setA {
		if setB[id] {
			want[id] = true
		}
	}
	if got := summaryIDSet(inter); !reflect.DeepEqual(got, want) {
		t.Fatalf("intersection %v != brute force %v", got, want)
	}
}

// TestEventsSinceSummaryExact is the heart of the handshake: when the
// serving side is *behind* the peer (it lacks one of the peer's
// frontier events), a frontier cannot anchor a diff at all, but a
// summary-anchored diff sends exactly the difference — here, nothing.
func TestEventsSinceSummaryExact(t *testing.T) {
	a, b := divergedPair(t)

	// b serves a reconnecting a, whose head b has never seen.
	if _, err := b.EventsSince(a.Version()); err == nil {
		t.Fatal("scenario broken: b resolved a frontier naming an event it lacks")
	}

	// The summary path sends exactly b's events that a lacks.
	diff, err := b.EventsSinceSummary(a.Summary())
	if err != nil {
		t.Fatal(err)
	}
	aSet := eventIDSet(a.Events())
	want := make(map[EventID]bool)
	for id := range eventIDSet(b.Events()) {
		if !aSet[id] {
			want[id] = true
		}
	}
	if got := eventIDSet(diff); !reflect.DeepEqual(got, want) {
		t.Fatalf("summary diff %v != set difference %v", got, want)
	}
	for _, ev := range diff {
		if a.Knows(ev.ID) {
			t.Fatalf("summary diff re-sent %v, which the peer already has", ev.ID)
		}
	}

	// Exchanging summary diffs in both directions converges the pair.
	back, err := a.EventsSinceSummary(b.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(diff); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Apply(back); err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() || a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("summary exchange did not converge: %q vs %q", a.Text(), b.Text())
	}
}

func TestEventsSinceSummaryEmptyAndFull(t *testing.T) {
	a, _ := divergedPair(t)
	all, err := a.EventsSinceSummary(VersionSummary{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != a.NumEvents() {
		t.Fatalf("empty summary got %d events, want the full history (%d)", len(all), a.NumEvents())
	}
	fresh := NewDoc("fresh")
	if _, err := fresh.Apply(all); err != nil {
		t.Fatal(err)
	}
	if fresh.Text() != a.Text() {
		t.Fatalf("replaying the full diff diverged: %q vs %q", fresh.Text(), a.Text())
	}
	none, err := a.EventsSinceSummary(a.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("self summary got %d events, want 0", len(none))
	}
}

func TestSummaryValidate(t *testing.T) {
	bad := []VersionSummary{
		{"a": nil},
		{"a": {{Start: -1, End: 3}}},
		{"a": {{Start: 3, End: 3}}},
		{"a": {{Start: 5, End: 2}}},
		{"a": {{Start: 0, End: 3}, {Start: 2, End: 5}}}, // overlap
		{"a": {{Start: 0, End: 3}, {Start: 3, End: 5}}}, // abutting
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %v", i, s)
		}
		if _, err := NewDoc("x").EventsSinceSummary(s); err == nil {
			t.Fatalf("case %d: EventsSinceSummary accepted %v", i, s)
		}
	}
	good := VersionSummary{"a": {{Start: 0, End: 3}, {Start: 4, End: 5}}, "b": {{Start: 2, End: 9}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected a well-formed summary: %v", err)
	}
}
