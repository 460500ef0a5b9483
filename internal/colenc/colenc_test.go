package colenc

import (
	"reflect"
	"strings"
	"testing"
)

// typed builds a linear typing batch by one agent: insert each rune of
// text at successive positions, each event parented on its predecessor.
func typed(agent string, text string) []Event {
	var evs []Event
	for i, r := range []rune(text) {
		ev := Event{ID: ID{Agent: agent, Seq: i}, Insert: true, Pos: i, Content: r}
		if i > 0 {
			ev.Parents = []ID{{Agent: agent, Seq: i - 1}}
		}
		evs = append(evs, ev)
	}
	return evs
}

func roundTrip(t *testing.T, evs []Event, opts Options) *Decoded {
	t.Helper()
	data, err := Encode(evs, opts)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.Events) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(dec.Events), len(evs))
	}
	for i := range evs {
		if !reflect.DeepEqual(dec.Events[i], evs[i]) {
			t.Fatalf("event %d: got %+v, want %+v", i, dec.Events[i], evs[i])
		}
	}
	return dec
}

func TestEmptyBatch(t *testing.T) {
	dec := roundTrip(t, nil, Options{})
	if dec.HasDoc {
		t.Fatal("unexpected doc column")
	}
}

func TestLinearTyping(t *testing.T) {
	roundTrip(t, typed("alice", "hello, world"), Options{})
}

func TestUnicodeContent(t *testing.T) {
	roundTrip(t, typed("alice", "héllo 漢字 🙂 ü"), Options{})
	roundTrip(t, typed("alice", "héllo 漢字 🙂 ü"), Options{Compress: true})
}

func TestBackspaceAndForwardDeleteRuns(t *testing.T) {
	evs := typed("a", "abcdef")
	n := len(evs)
	// Three backspaces from position 5.
	for i := 0; i < 3; i++ {
		evs = append(evs, Event{
			ID:      ID{Agent: "a", Seq: n + i},
			Parents: []ID{{Agent: "a", Seq: n + i - 1}},
			Pos:     5 - i,
		})
	}
	// Two forward deletes at position 0.
	for i := 0; i < 2; i++ {
		evs = append(evs, Event{
			ID:      ID{Agent: "a", Seq: n + 3 + i},
			Parents: []ID{{Agent: "a", Seq: n + 3 + i - 1}},
			Pos:     0,
		})
	}
	roundTrip(t, evs, Options{})
}

func TestConcurrentBranchesAndMerge(t *testing.T) {
	// a0 <- a1, a0 <- b0, {a1, b0} <- a2 (a merge event with two
	// parents, one of them two back in the batch).
	evs := []Event{
		{ID: ID{"a", 0}, Insert: true, Pos: 0, Content: 'x'},
		{ID: ID{"a", 1}, Parents: []ID{{"a", 0}}, Insert: true, Pos: 1, Content: 'y'},
		{ID: ID{"b", 0}, Parents: []ID{{"a", 0}}, Insert: true, Pos: 1, Content: 'z'},
		{ID: ID{"a", 2}, Parents: []ID{{"a", 1}, {"b", 0}}, Insert: true, Pos: 3, Content: 'w'},
	}
	roundTrip(t, evs, Options{})
}

func TestExternalParents(t *testing.T) {
	// A catch-up batch whose first event's parents live outside the
	// batch entirely.
	evs := []Event{
		{ID: ID{"b", 7}, Parents: []ID{{"a", 41}, {"c", 3}}, Insert: true, Pos: 9, Content: 'q'},
		{ID: ID{"b", 8}, Parents: []ID{{"b", 7}}, Pos: 9},
	}
	roundTrip(t, evs, Options{})
}

func TestRootEventMidBatch(t *testing.T) {
	// An event with no parents appearing after other events (a second
	// agent's history starting from the empty document).
	evs := []Event{
		{ID: ID{"a", 0}, Insert: true, Pos: 0, Content: 'x'},
		{ID: ID{"b", 0}, Insert: true, Pos: 0, Content: 'y'},
		{ID: ID{"a", 1}, Parents: []ID{{"a", 0}, {"b", 0}}, Pos: 0},
	}
	roundTrip(t, evs, Options{})
}

func TestDistantInBatchParent(t *testing.T) {
	// A parent further back than maxBackrefScan must still round-trip
	// (external (agent, seq) form).
	evs := typed("a", strings.Repeat("m", maxBackrefScan+10))
	branch := Event{
		ID:      ID{"b", 0},
		Parents: []ID{{Agent: "a", Seq: 0}}, // far behind the batch tail
		Insert:  true, Pos: 1, Content: 'b',
	}
	evs = append(evs, branch)
	roundTrip(t, evs, Options{})
}

func TestCachedDoc(t *testing.T) {
	evs := typed("a", "final text")
	data, err := EncodeRunsDoc(Runs(evs), "final text", Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.HasDoc || dec.Doc != "final text" {
		t.Fatalf("doc column: HasDoc=%v Doc=%q", dec.HasDoc, dec.Doc)
	}
}

func TestCompressionShrinksRepetitiveContent(t *testing.T) {
	evs := typed("a", strings.Repeat("abcabcabc ", 200))
	plain, err := Encode(evs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Encode(evs, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(plain) {
		t.Fatalf("compressed %d >= plain %d", len(packed), len(plain))
	}
	roundTrip(t, evs, Options{Compress: true})
}

func TestRunLengthBeatsPerEvent(t *testing.T) {
	// 1000 typed characters must cost ~1 byte each plus small fixed
	// overhead, not per-event framing.
	evs := typed("alice", strings.Repeat("a", 1000))
	data, err := Encode(evs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 1100 {
		t.Fatalf("1000-event typing run encoded to %d bytes", len(data))
	}
}

func TestDecodeLimit(t *testing.T) {
	evs := typed("a", strings.Repeat("x", 100))
	data, err := Encode(evs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeLimit(data, 99); err == nil {
		t.Fatal("DecodeLimit(99) accepted a 100-event frame")
	}
	if _, err := DecodeLimit(data, 100); err != nil {
		t.Fatalf("DecodeLimit(100): %v", err)
	}
}

func TestCorruptionRejected(t *testing.T) {
	evs := typed("a", "hello")
	data, err := Encode(evs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] = 'X'
		if _, err := Decode(bad); err != ErrBadMagic {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("flags", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[4] |= 0x80
		if _, err := Decode(bad); err == nil {
			t.Fatal("unknown flag bit accepted")
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := 9; i < len(data); i++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x40
			if _, err := Decode(bad); err == nil {
				t.Fatalf("bit flip at %d accepted", i)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for i := 0; i < len(data); i++ {
			if _, err := Decode(data[:i]); err == nil {
				t.Fatalf("truncation at %d accepted", i)
			}
		}
	})
}

func TestEncodeRejectsInvalid(t *testing.T) {
	cases := map[string][]Event{
		"negative seq": {{ID: ID{"a", -1}, Insert: true, Content: 'x'}},
		"negative pos": {{ID: ID{"a", 0}, Insert: true, Pos: -1, Content: 'x'}},
		"invalid rune": {{ID: ID{"a", 0}, Insert: true, Content: 0xD800}},
		"huge name":    {{ID: ID{strings.Repeat("n", maxAgentName+1), 0}, Insert: true, Content: 'x'}},
		// Past what the decoder takes: seqs and positions beyond 2^31-1.
		"seq 2^31-1":       {{ID: ID{"a", 1<<31 - 1}, Insert: true, Content: 'x'}},
		"seq 2^40":         {{ID: ID{"a", 1 << 40}, Insert: true, Content: 'x'}},
		"parent seq 2^31":  {{ID: ID{"a", 0}, Parents: []ID{{"b", 1 << 31}}, Insert: true, Content: 'x'}},
		"insert at 2^31-1": {{ID: ID{"a", 0}, Insert: true, Pos: 1<<31 - 1, Content: 'x'}},
		"delete at 2^31":   {{ID: ID{"a", 0}, Pos: 1 << 31}},
		"run past seq 2^31-1": {
			{ID: ID{"a", 1<<31 - 2}, Insert: true, Content: 'x'},
			{ID: ID{"a", 1<<31 - 1}, Parents: []ID{{"a", 1<<31 - 2}}, Insert: true, Pos: 1, Content: 'y'},
		},
	}
	for name, evs := range cases {
		if _, err := Encode(evs, Options{}); err == nil {
			t.Errorf("%s: encode accepted", name)
		}
	}
	// At the limits exactly, and back through the decoder.
	for _, evs := range [][]Event{
		{{ID: ID{"a", 1<<31 - 2}, Insert: true, Content: 'x'}},
		{{ID: ID{"a", 0}, Insert: true, Pos: 1<<31 - 2, Content: 'x'}},
		{{ID: ID{"a", 0}, Pos: 1<<31 - 1}},
		{{ID: ID{"a", 0}, Parents: []ID{{"b", 1<<31 - 1}}, Insert: true, Content: 'x'}},
	} {
		data, err := Encode(evs, Options{})
		if err != nil {
			t.Fatalf("%+v: %v", evs, err)
		}
		if dec, err := Decode(data); err != nil || !reflect.DeepEqual(dec.Events, evs) {
			t.Fatalf("%+v: decoded %+v, %v", evs, dec, err)
		}
	}
}
