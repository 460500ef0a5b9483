package egwalker

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"egwalker/internal/causal"
	"egwalker/internal/oplog"
)

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

// TestMarshalEventsReadsBackEqual: whatever MarshalEvents writes,
// UnmarshalEvents reads back as the events it was given — a delete's
// Content and an empty parent list aside, which the encoding does not
// carry. The events are drawn with seqs, parent seqs, positions, runes
// and agent names at and around every limit either side checks; what
// MarshalEvents refuses is not looked at.
func TestMarshalEventsReadsBackEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	pick := func(vals ...int) int {
		if rng.Intn(3) == 0 {
			return rng.Intn(1000)
		}
		return vals[rng.Intn(len(vals))]
	}
	seqs := []int{-1, 0, 1, causal.MaxSeq - 1, causal.MaxSeq, causal.MaxSeq + 1, 1 << 40, math.MinInt64}
	positions := []int{-oplog.MaxPos - 2, -oplog.MaxPos - 1, -1, 0, oplog.MaxPos - 1, oplog.MaxPos, oplog.MaxPos + 1, 1 << 40, math.MaxInt64}
	agents := []string{"a", "b", "", strings.Repeat("n", 4096), strings.Repeat("n", 4097)}
	written := 0
	for range 5000 {
		events := make([]Event, 1+rng.Intn(4))
		for i := range events {
			ev := &events[i]
			ev.ID = EventID{Agent: agents[rng.Intn(len(agents))], Seq: pick(seqs...)}
			ev.Insert, ev.Pos = rng.Intn(2) == 0, pick(positions...)
			ev.Content = rune(pick('x', -1, 0xD800, utf8.MaxRune+1, math.MaxInt32))
			for range rng.Intn(3) {
				p := EventID{Agent: agents[rng.Intn(len(agents))], Seq: pick(seqs...)}
				if i > 0 && rng.Intn(2) == 0 {
					p = events[rng.Intn(i)].ID
				}
				ev.Parents = append(ev.Parents, p)
			}
		}
		data, err := MarshalEvents(events)
		if err != nil {
			continue
		}
		written++
		got, err := UnmarshalEvents(data)
		if err != nil {
			t.Fatalf("MarshalEvents wrote %+v, which UnmarshalEvents refuses: %v", events, err)
		}
		for i := range events {
			if !events[i].Insert {
				events[i].Content = 0
			}
			if len(events[i].Parents) == 0 {
				events[i].Parents = nil
			}
		}
		if !reflect.DeepEqual(got, events) {
			t.Fatalf("MarshalEvents wrote %+v; UnmarshalEvents read %+v", events, got)
		}
	}
	if written < 100 {
		t.Fatalf("MarshalEvents wrote only %d of the batches", written)
	}
}
