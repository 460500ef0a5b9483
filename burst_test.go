package egwalker

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unicode/utf8"
)

// The regime a live server spends its time in: frames of 1–20 events,
// one or two runs each, where what a decode allocates is what it costs.

// burstFrames types a two-author session in keystroke-sized bursts and
// returns each burst as the compact frame a client would upload, with
// its events. Every few bursts the authors sync, so frames carry
// external parents and the odd two-parent merge event.
func burstFrames(tb testing.TB, n int) (frames [][]byte, events [][]Event) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	docs := []*Doc{NewDoc("alice"), NewDoc("bob")}
	for len(frames) < n {
		w := len(frames) % 2
		d := docs[w]
		before := d.Version()
		burst := 1 + rng.Intn(20)
		switch {
		case d.Len() > burst && rng.Intn(4) == 0:
			if err := d.Delete(rng.Intn(d.Len()-burst), burst); err != nil {
				tb.Fatal(err)
			}
		default:
			text := make([]rune, burst)
			for i := range text {
				text[i] = rune('a' + rng.Intn(26))
			}
			if err := d.Insert(rng.Intn(d.Len()+1), string(text)); err != nil {
				tb.Fatal(err)
			}
		}
		evs, err := d.EventsSince(before)
		if err != nil {
			tb.Fatal(err)
		}
		frame, err := MarshalEventsCompact(evs)
		if err != nil {
			tb.Fatal(err)
		}
		frames, events = append(frames, frame), append(events, evs)
		if rng.Intn(3) == 0 {
			other := docs[1-w]
			missing, err := d.EventsSinceSummary(other.Summary())
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := other.Apply(missing); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return frames, events
}

// TestBurstDecodeAllocs holds UnmarshalEventsAuto to what its result
// costs: the events and the ID array every parents slice is cut from (15
// objects before the decoder was reused, 3 while the first event's
// explicit parents were an object of their own).
func TestBurstDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not pool under the race detector")
	}
	frames, events := burstFrames(t, 64)
	for i, frame := range frames { // warm the pooled decoder and its name table
		got, err := UnmarshalEventsAuto(frame)
		if err != nil || !reflect.DeepEqual(got, events[i]) {
			t.Fatalf("frame %d: %v, decoded %v want %v", i, err, got, events[i])
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(len(frames)*4, func() {
		if _, err := UnmarshalEventsAuto(frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 2 {
		t.Fatalf("UnmarshalEventsAuto of a burst frame: %.1f objects, want at most 2", allocs)
	}
}

// TestEditBurstAllocs holds the keystroke path of a loaded document to
// what it returns. One burst — the Version a client uploads against, a
// word's Insert or a backspace per character, EventsSince that version —
// allocates the Version, the events and the ID array their parents are cut
// from, the first event's explicit ones from its spare tail: 3 objects.
// The rope's insert writes into the leaf it lands in, its delete walks one
// path, and the version's resolution, its dominators and the diff live on
// the stack; with a rope that copied its leaf on every insert and a heap
// copy of every intermediate it was 12, and 4 with the first event's
// parents apart.
func TestEditBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector the graph's traversals keep their heaps on the heap")
	}
	var file bytes.Buffer
	if err := latticeDoc(t, 3_000).Save(&file, SaveOptions{CacheFinalDoc: true}); err != nil {
		t.Fatal(err)
	}
	d, err := Load(bytes.NewReader(file.Bytes()), "typist")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	words := make([]string, 64) // made up front: the burst allocates nothing of its own
	for i := range words {
		w := make([]rune, 1+rng.Intn(20))
		for j := range w {
			w[j] = rune('a' + rng.Intn(26))
		}
		if i%8 == 0 {
			w[0] = 'é'
		}
		words[i] = string(w)
	}
	cursor, i := d.Len()/2, 0
	burst := func() {
		v := d.Version()
		if n := 1 + i%10; i%4 == 3 && cursor >= n {
			for range n { // backspace, a key at a time
				if err = d.Delete(cursor-1, 1); err != nil {
					break
				}
				cursor--
			}
		} else {
			w := words[i%len(words)]
			err = d.Insert(cursor, w)
			cursor += utf8.RuneCountInString(w)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			cursor = rng.Intn(d.Len() + 1)
		}
		i++
		evs, err := d.EventsSince(v)
		if err != nil || len(evs) == 0 {
			t.Fatalf("EventsSince after a burst: %d events, %v", len(evs), err)
		}
	}
	for range 200 {
		burst()
	}
	allocs := testing.AllocsPerRun(1000, burst)
	t.Logf("a burst: %.0f objects", allocs)
	if allocs > 3 {
		t.Errorf("a burst allocated %.0f objects; want at most 3 (the Version, the events, their ID array)", allocs)
	}
}

// TestUnmarshalResultIsOwned: nothing UnmarshalEventsAuto returns points
// into the pooled decoder. A result held across later decodes keeps its
// value, and scribbling over it changes no later decode.
func TestUnmarshalResultIsOwned(t *testing.T) {
	frames, events := burstFrames(t, 32)
	for round := 0; round < 3; round++ {
		for i := range frames {
			held, err := UnmarshalEventsAuto(frames[i])
			if err != nil {
				t.Fatal(err)
			}
			for j := 1; j <= 3; j++ { // the same pooled decoder, other frames
				k := (i + j) % len(frames)
				got, err := UnmarshalEventsAuto(frames[k])
				if err != nil || !reflect.DeepEqual(got, events[k]) {
					t.Fatalf("frame %d after frame %d: %v, decoded %v want %v", k, i, err, got, events[k])
				}
			}
			if !reflect.DeepEqual(held, events[i]) {
				t.Fatalf("frame %d changed while later frames decoded: %v want %v", i, held, events[i])
			}
			for e := range held {
				for p := range held[e].Parents {
					held[e].Parents[p] = EventID{Agent: "scribble", Seq: -1}
				}
				held[e] = Event{ID: EventID{Agent: "scribble", Seq: -2}}
			}
		}
	}
}

func BenchmarkBurstDecode(b *testing.B) {
	frames, _ := burstFrames(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalEventsAuto(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}
