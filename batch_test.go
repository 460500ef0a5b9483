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
	got, err := unmarshalEvents(data)
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
// unmarshalEvents reads back as the events it was given — a delete's
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
		got, err := unmarshalEvents(data)
		if err != nil {
			t.Fatalf("MarshalEvents wrote %+v, which unmarshalEvents refuses: %v", events, err)
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
			t.Fatalf("MarshalEvents wrote %+v; unmarshalEvents read %+v", events, got)
		}
	}
	if written < 100 {
		t.Fatalf("MarshalEvents wrote only %d of the batches", written)
	}
}

// typedRun is n characters typed by one agent: with base, after base's
// characters (one external parent); without, from an empty document.
func typedRun(t *testing.T, agent string, n int, base bool) []Event {
	t.Helper()
	d := NewDoc(agent)
	if base {
		if err := d.Insert(0, "base"); err != nil {
			t.Fatal(err)
		}
	}
	v := d.Version()
	for i := range n {
		if err := d.Insert(d.Len(), string(rune('a'+i%26))); err != nil {
			t.Fatal(err)
		}
	}
	evs, err := d.EventsSince(v)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestMarshalBatchesPicksTheSmallerEncoding: for a typed single-agent
// run of 1 to 16 characters, from the root or after an external parent,
// under agent names of 1, 11, 22 and 64 bytes, the writer's one payload
// is exactly the smaller of the two encodings and reads back as the
// batch. The empty batch is one payload too.
func TestMarshalBatchesPicksTheSmallerEncoding(t *testing.T) {
	for _, nameLen := range []int{1, 11, 22, 64} {
		agent := strings.Repeat("w", nameLen)
		for n := 0; n <= 16; n++ {
			for _, base := range []bool{false, true} {
				evs := typedRun(t, agent, n, base)
				legacy, err := MarshalEvents(evs)
				if err != nil {
					t.Fatal(err)
				}
				columnar, err := MarshalEventsCompact(evs)
				if err != nil {
					t.Fatal(err)
				}
				want := legacy
				if len(columnar) < len(legacy) {
					want = columnar
				}
				got, err := MarshalBatches(evs)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
					t.Fatalf("%d-byte agent, %d events, base %v: %d payloads, first %d bytes; want legacy %d or columnar %d, whichever is smaller",
						nameLen, n, base, len(got), len(got[0]), len(legacy), len(columnar))
				}
				back, err := UnmarshalEventsAuto(got[0])
				if err != nil || len(back) != n || n > 0 && !reflect.DeepEqual(back, evs) {
					t.Fatalf("%d-byte agent, %d events, base %v: read back %d events, %v", nameLen, n, base, len(back), err)
				}
			}
		}
	}
}

// TestMarshalBatchesHalvesToTheCap: a batch over the cap is halved until
// every payload fits, and the payloads read back in order as the batch.
func TestMarshalBatchesHalvesToTheCap(t *testing.T) {
	evs := typedRun(t, "writer", 40, true)
	whole, err := MarshalEventsCompact(evs)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 40
	got, err := marshalBatches(evs, limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || len(whole) <= limit {
		t.Fatalf("%d payloads from a %d-byte batch under a %d-byte cap", len(got), len(whole), limit)
	}
	var back []Event
	for _, payload := range got {
		if len(payload) > limit {
			t.Fatalf("payload of %d bytes over the %d-byte cap", len(payload), limit)
		}
		part, err := UnmarshalEventsAuto(payload)
		if err != nil {
			t.Fatal(err)
		}
		back = append(back, part...)
	}
	if !reflect.DeepEqual(back, evs) {
		t.Fatalf("%d events read back as %d different ones", len(evs), len(back))
	}
}

// TestMarshalBatchesRefusesALoneEventOverTheCap: when a single event's
// encoding exceeds the cap, splitting cannot help — the call fails
// cleanly (no endless halving, no over-cap payload). The cap is a
// parameter because a legal event never reaches the real 16 MiB one
// (agent names and parent counts are bounded); the logic is what must
// hold.
func TestMarshalBatchesRefusesALoneEventOverTheCap(t *testing.T) {
	ev := Event{ID: EventID{Agent: "agent-with-a-fairly-long-name", Seq: 1}, Insert: true, Content: 'a'}
	if _, err := marshalBatches([]Event{ev}, 16); err == nil {
		t.Fatal("oversized single event accepted")
	}
	// A batch of several such events fails the same way once split down
	// to single events — cleanly, not looping.
	batch := []Event{ev, {ID: EventID{Agent: ev.ID.Agent, Seq: 2}, Insert: true, Pos: 1, Content: 'b'}}
	if _, err := marshalBatches(batch, 16); err == nil {
		t.Fatal("batch of oversized events accepted")
	}
	// The same batch under a workable cap encodes.
	if got, err := marshalBatches(batch, 1024); err != nil || len(got) != 1 {
		t.Fatalf("workable cap: %d payloads, %v", len(got), err)
	}
}
