package netsync

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"egwalker"
)

// buildBatchOfSize constructs an event batch whose columnar encoding —
// the one egwalker.MarshalBatches writes for a batch this long — is
// exactly size bytes: events with distinct ~768-byte agent names get
// the size near the target cheaply, then the last agent's name is
// padded byte for byte. Name lengths stay in [128, 4096), so the
// length uvarint width never changes and a byte of name is exactly a
// byte of encoding.
func buildBatchOfSize(t *testing.T, size int) []egwalker.Event {
	t.Helper()
	const baseName = 768
	mk := func(i, pad int) egwalker.Event {
		return egwalker.Event{
			ID:      egwalker.EventID{Agent: fmt.Sprintf("agent-%06d-%s", i, strings.Repeat("x", baseName+pad)), Seq: 1},
			Insert:  true,
			Pos:     i,
			Content: 'a',
		}
	}
	measure := func(evs []egwalker.Event) int {
		b, err := egwalker.MarshalEventsCompact(evs)
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	// Conservative per-event estimate (biased high so the bulk build
	// undershoots), then single-step up to just under the target.
	probe := make([]egwalker.Event, 512)
	for i := range probe {
		probe[i] = mk(i, 0)
	}
	per := measure(probe)/len(probe) + 16
	n := (size - 8192) / per
	evs := make([]egwalker.Event, 0, n+16)
	for i := 0; i < n; i++ {
		evs = append(evs, mk(i, 0))
	}
	// Converge in bulk steps (the high-biased per undershoots, so this
	// never overshoots the window), re-measuring a handful of times
	// instead of once per event.
	got := measure(evs)
	for got < size-2500 {
		k := (size - 2500 - got) / per
		if k < 1 {
			k = 1
		}
		for i := 0; i < k; i++ {
			evs = append(evs, mk(len(evs), 0))
		}
		got = measure(evs)
	}
	if got >= size {
		t.Fatalf("overshot: %d >= %d", got, size)
	}
	// Pad the last agent's name by the exact deficit (at most 2500, so
	// the padded name stays well under the 4096-byte agent-name cap).
	evs[len(evs)-1] = mk(len(evs)-1, size-got)
	if got := measure(evs); got != size {
		t.Fatalf("batch is %d bytes, want exactly %d", got, size)
	}
	return evs
}

func roundTripChunks(t *testing.T, events []egwalker.Event) [][]byte {
	t.Helper()
	chunks, err := egwalker.MarshalBatches(events)
	if err != nil {
		t.Fatal(err)
	}
	var back []egwalker.Event
	var buf bytes.Buffer
	for _, c := range chunks {
		// Every chunk must be frame-transportable.
		buf.Reset()
		if err := writeFrame(&buf, msgEvents, c); err != nil {
			t.Fatalf("chunk of %d bytes not frame-transportable: %v", len(c), err)
		}
		evs, err := egwalker.UnmarshalEventsAuto(c)
		if err != nil {
			t.Fatal(err)
		}
		back = append(back, evs...)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(back), len(events))
	}
	for i := range events {
		if back[i].ID != events[i].ID || back[i].Pos != events[i].Pos {
			t.Fatalf("event %d corrupted: %+v vs %+v", i, back[i].ID, events[i].ID)
		}
	}
	return chunks
}

// TestMarshalChunksAtFrameCap: a batch encoding to exactly the 16 MiB
// frame cap goes out as one frame; one byte over splits into two
// frames, both under the cap, and reassembles losslessly. (A lone event
// over the cap is refused: TestMarshalBatchesRefusesALoneEventOverTheCap
// in the root package, where the cap is a parameter.)
func TestMarshalChunksAtFrameCap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds multi-MiB batches")
	}
	exact := buildBatchOfSize(t, egwalker.MaxBatchBytes)
	chunks := roundTripChunks(t, exact)
	if len(chunks) != 1 || len(chunks[0]) != egwalker.MaxBatchBytes {
		t.Fatalf("exactly-at-cap batch: %d chunks, first %d bytes; want 1 chunk of %d", len(chunks), len(chunks[0]), egwalker.MaxBatchBytes)
	}

	over := buildBatchOfSize(t, egwalker.MaxBatchBytes+1)
	chunks = roundTripChunks(t, over)
	if len(chunks) < 2 {
		t.Fatalf("one-byte-over batch went out in %d chunk(s)", len(chunks))
	}
	for i, c := range chunks {
		if len(c) > egwalker.MaxBatchBytes {
			t.Fatalf("chunk %d is %d bytes, over the cap", i, len(c))
		}
	}
}
