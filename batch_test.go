package egwalker

import "testing"

func buildDivergedDocs(t *testing.T) (*Doc, *Doc) {
	t.Helper()
	a := NewDoc("alice")
	if err := a.Insert(0, "shared base text"); err != nil {
		t.Fatal(err)
	}
	b, err := a.Fork("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(0, "A-side! "); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(b.Len(), " B-side!"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(0, 3); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestMarshalEventsRoundTrip(t *testing.T) {
	a, b := buildDivergedDocs(t)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	evs := a.Events()
	data, err := MarshalEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalEvents(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("got %d events, want %d", len(got), len(evs))
	}
	fresh := NewDoc("fresh")
	if _, err := fresh.Apply(got); err != nil {
		t.Fatal(err)
	}
	if fresh.Text() != a.Text() {
		t.Fatalf("replayed text %q != original %q", fresh.Text(), a.Text())
	}
}
