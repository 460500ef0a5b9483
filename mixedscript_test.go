package egwalker

// The mixed-script differential: histories typed in characters of one,
// two, three and four bytes of UTF-8, and in runs that mix them, held to
// the per-unit references on every path that finds a character by its
// position in the log's UTF-8 arena or the rope's leaves — the export
// from inside a run, a version inside a run, the delivery of a run cut
// anywhere, and the file.

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unicode/utf8"

	"egwalker/internal/causal"
	"egwalker/internal/colenc"
)

// mixedScripts are alphabets of one UTF-8 width each.
var mixedScripts = [][]rune{
	[]rune("abcdefgh ,."),
	[]rune("éüßñøåçðþ"),
	[]rune("漢字語文書日本"),
	[]rune("🙂😀𝄞🚀🎉"),
}

// mixedWord is a run to type: of one width or of all four, mostly a few
// characters, now and then more than the 64 between two of the log's
// marks.
func mixedWord(rng *rand.Rand) string {
	n := 1 + rng.Intn(12)
	if rng.Intn(8) == 0 {
		n = 65 + rng.Intn(90)
	}
	script := rng.Intn(len(mixedScripts) + 1)
	rs := make([]rune, n)
	for i := range rs {
		s := script
		if s == len(mixedScripts) {
			s = rng.Intn(len(mixedScripts))
		}
		rs[i] = mixedScripts[s][rng.Intn(len(mixedScripts[s]))]
	}
	return string(rs)
}

// mixedSnapshot is a replica's version and its text at that version.
type mixedSnapshot struct {
	v    Version
	text string
}

// mixedSession has three replicas, and forks of them, type runs of mixed
// widths — on from where they stopped, so that a run goes on across calls
// and across the versions taken in between, or anywhere, inside another's
// run included — delete stretches that cut runs, backspace and merge. It
// returns a replica that has merged everything and the versions taken.
func mixedSession(t *testing.T, rng *rand.Rand, steps int) (*Doc, []mixedSnapshot) {
	t.Helper()
	docs := []*Doc{NewDoc("ann"), NewDoc("bob"), NewDoc("cy")}
	cursor := map[*Doc]int{}
	var snaps []mixedSnapshot
	for s := 0; s < steps; s++ {
		d := docs[rng.Intn(len(docs))]
		var err error
		switch k := rng.Intn(12); {
		case k < 4 || d.Len() == 0: // type on
			pos := min(cursor[d], d.Len())
			w := mixedWord(rng)
			err = d.Insert(pos, w)
			cursor[d] = pos + utf8.RuneCountInString(w)
		case k < 6: // type anywhere
			pos := rng.Intn(d.Len() + 1)
			w := mixedWord(rng)
			err = d.Insert(pos, w)
			cursor[d] = pos + utf8.RuneCountInString(w)
		case k < 7: // delete a stretch
			pos := rng.Intn(d.Len())
			n := 1 + rng.Intn(min(20, d.Len()-pos))
			err = d.Delete(pos, n)
			cursor[d] = pos
		case k < 9: // backspace at the cursor
			pos := min(cursor[d], d.Len())
			for n := 1 + rng.Intn(5); n > 0 && pos > 0 && err == nil; n-- {
				pos--
				err = d.Delete(pos, 1)
			}
			cursor[d] = pos
		case k < 10: // a fork joins, and edits on its own
			var f *Doc
			if f, err = d.Fork("fork" + string(rune('a'+len(docs)))); err == nil {
				docs = append(docs, f)
				cursor[f] = cursor[d]
			}
		default:
			if src := docs[rng.Intn(len(docs))]; src != d {
				err = d.Merge(src)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			snaps = append(snaps, mixedSnapshot{d.Version(), d.Text()})
		}
	}
	for _, src := range docs[1:] {
		if err := docs[0].Merge(src); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range docs[1:] {
		if err := d.Merge(docs[0]); err != nil {
			t.Fatal(err)
		}
		if d.Text() != docs[0].Text() {
			t.Fatalf("replicas %s and %s hold %q and %q", d.Agent(), docs[0].Agent(), d.Text(), docs[0].Text())
		}
	}
	return docs[0], snaps
}

// TestMixedScriptDifferential: over mixed-width histories, Events and
// EventsSince from versions inside runs match the per-unit export, TextAt
// gives back the text each version had, Apply in batches cut anywhere
// matches the per-unit reference patch for patch (applyBoth mirrors them),
// and Save writes what RefSave and the per-unit encoder write, in every
// columnar mode, which Load reads back to the same document and bytes.
func TestMixedScriptDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for round := 0; round < 12; round++ {
		final, snaps := mixedSession(t, rng, 40+rng.Intn(60))
		full := causal.Span{End: causal.LV(final.log.Len())}
		all := final.Events()
		if !reflect.DeepEqual(all, refEventsIn(final, full)) {
			t.Fatalf("round %d: Events differs from the per-unit export", round)
		}
		if final.Len() != utf8.RuneCountInString(final.Text()) || !utf8.ValidString(string(final.log.Content())) {
			t.Fatalf("round %d: text of %d characters, %q", round, final.Len(), final.Text())
		}
		for si, snap := range snaps {
			got, err := final.EventsSince(snap.v)
			if err != nil {
				t.Fatal(err)
			}
			f, err := final.resolveVersion(snap.v, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var lvs causal.Frontier
			for _, r := range f {
				lvs = append(lvs, r.LV)
			}
			only, _ := final.log.Graph.Diff(final.log.Frontier(), lvs)
			if want := refEventsIn(final, only...); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d version %d: EventsSince differs from the per-unit export (%d vs %d events)", round, si, len(got), len(want))
			}
			if text, err := final.TextAt(snap.v); err != nil || text != snap.text {
				t.Fatalf("round %d version %d: TextAt gives %q (%v), the replica held %q", round, si, text, err, snap.text)
			}
		}

		shuffled := slices.Clone(all)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for name, batches := range map[string][][]Event{"causal": cut(rng, all), "shuffled": cut(rng, shuffled)} {
			got, want := NewDoc("got"), NewDoc("want")
			for _, batch := range batches {
				applyBoth(t, got, want, batch)
			}
			if t.Failed() || got.Text() != final.Text() || got.PendingEvents() != 0 {
				t.Fatalf("round %d, delivery %s: text %q, want %q", round, name, got.Text(), final.Text())
			}
		}

		if SaveMatchesReference(t, final) {
			t.Fatalf("round %d: the reference refused the document", round)
		}
		unit, err := colenc.Encode(refWire(refEventsIn(final, full)), colenc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range columnarOptions {
			var file bytes.Buffer
			if err := final.Save(&file, opts); err != nil {
				t.Fatal(err)
			}
			if opts == (SaveOptions{}) && !bytes.Equal(file.Bytes(), unit) {
				t.Fatalf("round %d: Save wrote %d bytes, the per-unit encoder %d", round, file.Len(), len(unit))
			}
			loaded, err := Load(bytes.NewReader(file.Bytes()), "loader")
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := loaded.Save(&again, opts); err != nil {
				t.Fatal(err)
			}
			if loaded.Text() != final.Text() || !reflect.DeepEqual(loaded.Events(), all) || !bytes.Equal(again.Bytes(), file.Bytes()) {
				t.Fatalf("round %d %+v: the loaded document differs, or saves other bytes", round, opts)
			}
			if ms := loaded.MemStats(); ms.ContentBytes < len(loaded.log.Content()) || ms.ContentBytes > ms.LogBytes {
				t.Fatalf("round %d: %+v for an arena of %d bytes", round, ms, len(loaded.log.Content()))
			}
		}
	}
}

// TestMixedScriptInvalidCharacters: a run whose characters are not all
// Unicode scalar values — -1, a surrogate, one past utf8.MaxRune, between
// characters of every width — comes back from Events, EventsSince and
// the per-unit export as it went in, reads as U+FFFD in the text, the
// patches and the text at a version inside it, and makes Save refuse as
// the reference encoder does.
func TestMixedScriptInvalidCharacters(t *testing.T) {
	content := []rune{'a', 'é', -1, '漢', 0xD800, '🙂', utf8.MaxRune + 1, 'z', 'ü'}
	var events []Event
	for i, c := range content {
		ev := Event{ID: EventID{Agent: "x", Seq: i}, Insert: true, Pos: i, Content: c}
		if i > 0 {
			ev.Parents = []EventID{{Agent: "x", Seq: i - 1}}
		}
		events = append(events, ev)
	}
	got, want := NewDoc("got"), NewDoc("want")
	applyBoth(t, got, want, events[:4])
	applyBoth(t, got, want, events[2:])
	if got.Text() != string(content) || !utf8.ValidString(got.Text()) {
		t.Fatalf("text %q, want %q", got.Text(), string(content))
	}
	if evs := got.Events(); !reflect.DeepEqual(evs, events) {
		t.Fatalf("Events gives %v, want %v", evs, events)
	}
	since, err := got.EventsSince(Version{{Agent: "x", Seq: 3}})
	if err != nil || !reflect.DeepEqual(since, events[4:]) {
		t.Fatalf("EventsSince from inside the run gives %v (%v), want %v", since, err, events[4:])
	}
	if text, err := got.TextAt(Version{{Agent: "x", Seq: 4}}); err != nil || text != string(content[:5]) {
		t.Fatalf("TextAt inside the run gives %q (%v), want %q", text, err, string(content[:5]))
	}
	if !SaveMatchesReference(t, got) {
		t.Fatal("Save of a document holding invalid characters was not refused")
	}
	var file bytes.Buffer
	err = got.Save(&file, SaveOptions{})
	if err == nil || err.Error() != "colenc: invalid rune -0x1 in event x/2" {
		t.Fatalf("Save: %v", err)
	}
}
