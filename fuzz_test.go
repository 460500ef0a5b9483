package egwalker_test

// FuzzDocSaveLoadRoundTrip drives whole documents through the public
// API — concurrent edits on several replicas, merges, and every
// persistence mode — from a fuzzed byte script. It complements
// internal/encoding's byte-level fuzzing (which attacks the decoder
// with corrupt input): here the encoder/decoder pair must round-trip
// every reachable document state.

import (
	"bytes"
	"reflect"
	"testing"

	"egwalker"
	"egwalker/internal/colenc"
	"egwalker/internal/core"
)

// runScript interprets script as edits/merges over three replicas.
// Every byte sequence is a valid script, so the fuzzer explores freely.
func runScript(t *testing.T, script []byte) []*egwalker.Doc {
	t.Helper()
	docs := []*egwalker.Doc{
		egwalker.NewDoc("a"), egwalker.NewDoc("b"), egwalker.NewDoc("c"),
	}
	next := func(i *int) byte {
		if *i >= len(script) {
			return 0
		}
		b := script[*i]
		*i++
		return b
	}
	for i := 0; i < len(script); {
		d := docs[int(next(&i))%len(docs)]
		switch next(&i) % 4 {
		case 0, 1: // insert one rune at a scripted position
			pos := int(next(&i)) % (d.Len() + 1)
			// Map the content byte over ASCII plus a few multi-byte runes.
			alphabet := []rune("abcdefghijklmnopqrstuvwxyz 0123456789éü漢🙂")
			r := alphabet[int(next(&i))%len(alphabet)]
			if err := d.Insert(pos, string(r)); err != nil {
				t.Fatalf("insert: %v", err)
			}
		case 2: // delete one rune
			if d.Len() == 0 {
				continue
			}
			pos := int(next(&i)) % d.Len()
			if err := d.Delete(pos, 1); err != nil {
				t.Fatalf("delete: %v", err)
			}
		case 3: // merge another replica in
			src := docs[int(next(&i))%len(docs)]
			if src != d {
				if err := d.Merge(src); err != nil {
					t.Fatalf("merge: %v", err)
				}
			}
		}
	}
	// Converge everyone so the invariants below see one document.
	for _, d := range docs {
		for _, s := range docs {
			if s != d {
				if err := d.Merge(s); err != nil {
					t.Fatalf("final merge: %v", err)
				}
			}
		}
	}
	return docs
}

// saveSeeds are scripts for the shapes of a history where a writer that
// takes its columns straight from the log could part from the run-by-run
// reference, each with what shows, in the first replica's events, that the
// script reaches its shape.
var saveSeeds = []struct {
	name    string
	script  []byte
	reached func(evs []egwalker.Event) bool
}{
	{"a parent more than 64 events back", farParentScript(), func(evs []egwalker.Event) bool {
		at := map[egwalker.EventID]int{}
		for i, ev := range evs {
			for _, p := range ev.Parents {
				if i-at[p] > 64 {
					return true
				}
			}
			at[ev.ID] = i
		}
		return false
	}},
	{"three interleaved agents", interleavedScript(), func(evs []egwalker.Event) bool {
		agents, switches := map[string]bool{}, 0
		for i, ev := range evs {
			agents[ev.ID.Agent] = true
			if i > 0 && ev.ID.Agent != evs[i-1].ID.Agent {
				switches++
			}
		}
		return len(agents) == 3 && switches >= 6
	}},
	{"a backspace run across an entry boundary", script(
		ins(0, 0, 0), ins(0, 1, 1), ins(0, 2, 2), ins(0, 3, 3), ins(0, 4, 4), ins(0, 5, 5),
		del(0, 5), del(0, 4), merge(1, 0), del(1, 3), del(1, 2),
	), func(evs []egwalker.Event) bool {
		for i := 1; i < len(evs); i++ {
			ev, prev := evs[i], evs[i-1]
			if !ev.Insert && !prev.Insert && ev.Pos == prev.Pos-1 && ev.ID.Agent != prev.ID.Agent {
				return true
			}
		}
		return false
	}},
	{"the empty document", []byte{}, func(evs []egwalker.Event) bool { return len(evs) == 0 }},
}

// Steps of a runScript script: replica doc inserts alphabet[char] at pos,
// deletes at pos, or merges replica src.
func ins(doc, pos, char int) []byte { return []byte{byte(doc), 0, byte(pos), byte(char)} }
func del(doc, pos int) []byte       { return []byte{byte(doc), 2, byte(pos)} }
func merge(doc, src int) []byte     { return []byte{byte(doc), 3, byte(src)} }
func script(steps ...[]byte) []byte { return bytes.Join(steps, nil) }

// farParentScript: the first replica types a character, the second 70,
// and the first, having merged them, one more on top of both.
func farParentScript() []byte {
	steps := [][]byte{ins(0, 0, 0)}
	for k := range 70 {
		steps = append(steps, ins(1, k, k))
	}
	return script(append(steps, merge(0, 1), ins(0, 1, 25))...)
}

// interleavedScript: five rounds in which each replica types two characters
// and merges the next.
func interleavedScript() []byte {
	var steps [][]byte
	for r := range 5 {
		for d := range 3 {
			steps = append(steps, ins(d, 0, r+d), ins(d, 0, r), merge(d, (d+1)%3))
		}
	}
	return script(steps...)
}

// multiByteScript: the first replica types a run of 80 characters of two,
// three and four bytes — past a mark of the log's arena — the second,
// having merged it, types inside it and deletes from it, and the first
// goes on typing at its end.
func multiByteScript() []byte {
	var steps [][]byte
	for k := range 80 {
		steps = append(steps, ins(0, k, 37+k%4))
	}
	steps = append(steps, merge(1, 0), ins(1, 3, 39), ins(1, 4, 40), del(1, 10), del(1, 9), ins(1, 70, 0))
	for k := range 6 {
		steps = append(steps, ins(0, 80+k, 40-k%4))
	}
	return script(steps...)
}

// TestSaveSeedsReachTheirCases: each of saveSeeds builds the history it is
// there for.
func TestSaveSeedsReachTheirCases(t *testing.T) {
	for _, s := range saveSeeds {
		if evs := runScript(t, s.script)[0].Events(); !s.reached(evs) {
			t.Errorf("seed %q: its %d events do not show it", s.name, len(evs))
		}
	}
}

func FuzzDocSaveLoadRoundTrip(f *testing.F) {
	f.Add([]byte("hello fuzzer"))
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 3, 0, 2, 2, 5, 1, 3, 2, 0, 3, 1})
	f.Add(bytes.Repeat([]byte{0, 0, 3, 7, 1, 2, 9, 4, 2, 3, 1, 0}, 40))
	for _, s := range saveSeeds {
		f.Add(s.script)
	}
	f.Add(multiByteScript())
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		docs := runScript(t, script)
		a := docs[0]
		for i, d := range docs[1:] {
			if d.Text() != a.Text() || d.Fingerprint() != a.Fingerprint() {
				t.Fatalf("replica %d did not converge: %q vs %q", i+1, d.Text(), a.Text())
			}
		}
		// Save writes what the run-by-run reference writes, on every
		// replica: the same events, merged in different orders.
		for _, d := range docs {
			egwalker.SaveMatchesReference(t, d)
		}
		// Round-trip through every persistence mode, pruned ones too.
		for _, opts := range []egwalker.SaveOptions{
			{},
			{CacheFinalDoc: true},
			{Compress: true},
			{CacheFinalDoc: true, Compress: true},
			{OmitDeletedContent: true},
			{OmitDeletedContent: true, CacheFinalDoc: true},
			{OmitDeletedContent: true, Compress: true},
			{OmitDeletedContent: true, CacheFinalDoc: true, Compress: true},
		} {
			var buf bytes.Buffer
			if err := a.Save(&buf, opts); err != nil {
				t.Fatalf("save %+v: %v", opts, err)
			}
			loaded, err := egwalker.Load(bytes.NewReader(buf.Bytes()), "loader")
			if err != nil {
				t.Fatalf("load %+v: %v", opts, err)
			}
			if loaded.Text() != a.Text() {
				t.Fatalf("save/load %+v changed text: %q -> %q", opts, a.Text(), loaded.Text())
			}
			if loaded.NumEvents() != a.NumEvents() {
				t.Fatalf("save/load %+v changed event count: %d -> %d", opts, a.NumEvents(), loaded.NumEvents())
			}
			if loaded.Fingerprint() != a.Fingerprint() {
				t.Fatalf("save/load %+v changed fingerprint", opts)
			}
			egwalker.SaveMatchesReference(t, loaded)
			// A second generation must be byte-stable: saving the loaded
			// doc with the same options yields a decodable, equivalent file.
			var buf2 bytes.Buffer
			if err := loaded.Save(&buf2, opts); err != nil {
				t.Fatalf("re-save %+v: %v", opts, err)
			}
			reloaded, err := egwalker.Load(bytes.NewReader(buf2.Bytes()), "loader2")
			if err != nil {
				t.Fatalf("re-load %+v: %v", opts, err)
			}
			if reloaded.Text() != a.Text() {
				t.Fatalf("second-generation load %+v changed text", opts)
			}
		}
		// Columnar-vs-legacy batch codec differential: both encodings of
		// the full history must decode to the identical event list.
		events := a.Events()
		legacyEnc, err := egwalker.MarshalEvents(events)
		if err != nil {
			t.Fatal(err)
		}
		compactEnc, err := egwalker.MarshalEventsCompact(events)
		if err != nil {
			t.Fatal(err)
		}
		fromLegacy, err := egwalker.UnmarshalEventsAuto(legacyEnc)
		if err != nil {
			t.Fatal(err)
		}
		fromCompact, err := egwalker.UnmarshalEventsAuto(compactEnc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromLegacy, fromCompact) {
			t.Fatalf("codec differential: legacy and columnar decode diverge")
		}
		if !reflect.DeepEqual(fromCompact, events) {
			t.Fatalf("codec differential: columnar round-trip changed the events")
		}
		// The current version must reconstruct via the history API too.
		got, err := a.TextAt(a.Version())
		if err != nil {
			t.Fatal(err)
		}
		if got != a.Text() {
			t.Fatalf("TextAt(current) = %q, want %q", got, a.Text())
		}
		// Span-vs-unit differential: the incrementally maintained text,
		// the span-wise full replay, and the per-unit reference replay
		// must all agree, and the span stream must expand to exactly the
		// per-unit stream.
		var hist bytes.Buffer
		if err := a.Save(&hist, egwalker.SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		dec, err := colenc.LoadDocument(hist.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		spanText, err := core.ReplayText(dec.Log)
		if err != nil {
			t.Fatal(err)
		}
		unitText, err := core.ReplayTextUnitRef(dec.Log)
		if err != nil {
			t.Fatal(err)
		}
		if spanText != a.Text() || unitText != a.Text() {
			t.Fatalf("replay differential: doc %q, span %q, unit %q", a.Text(), spanText, unitText)
		}
		spanStream, err := core.UnitStream(dec.Log, core.TransformAll)
		if err != nil {
			t.Fatal(err)
		}
		unitStream, err := core.UnitStream(dec.Log, core.TransformAllUnitRef)
		if err != nil {
			t.Fatal(err)
		}
		if at := core.DiffUnitStreams(spanStream, unitStream); at >= 0 {
			t.Fatalf("span stream diverges from per-unit reference at unit op %d", at)
		}
	})
}
