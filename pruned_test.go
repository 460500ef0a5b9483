package egwalker

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"unicode/utf8"
)

// TestPrunedLoadRefusesWhatItLeftOut: a document loaded from a file saved
// with OmitDeletedContent holds placeholders for the characters the file
// left out. It refuses, with ErrPruned, whatever would hand one out as
// content — a catch-up from nothing, from an empty summary, a merge into
// an empty replica, an unpruned Save, the text of a version before the
// delete — and a fork of it does the same. What holds none of them still
// works, and edits made after the load reach a peer both ways.
func TestPrunedLoadRefusesWhatItLeftOut(t *testing.T) {
	d := NewDoc("a")
	if err := d.Insert(0, "keep "); err != nil {
		t.Fatal(err)
	}
	kept := d.Version()
	if err := d.Insert(5, "gone"); err != nil {
		t.Fatal(err)
	}
	typed := d.Version()
	b, err := d.Fork("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(9, "!"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(5, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Merge(b); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "keep !" {
		t.Fatalf("the history reads %q", d.Text())
	}
	for _, opts := range []SaveOptions{
		{OmitDeletedContent: true},
		{OmitDeletedContent: true, CacheFinalDoc: true},
		{OmitDeletedContent: true, CacheFinalDoc: true, Compress: true},
	} {
		var file bytes.Buffer
		if err := d.Save(&file, opts); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(file.Bytes()), "loaded")
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if loaded.Text() != d.Text() || !reflect.DeepEqual(loaded.Version(), d.Version()) {
			t.Fatalf("%+v: loaded %q at %v", opts, loaded.Text(), loaded.Version())
		}
		refused := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, ErrPruned) {
				t.Errorf("%+v: %s: %v, want ErrPruned", opts, what, err)
			}
		}
		for _, doc := range []*Doc{loaded, mustFork(t, loaded, "fork")} {
			_, err := doc.EventsSince(nil)
			refused("EventsSince(nil)", err)
			_, err = doc.EventsSinceSummary(VersionSummary{})
			refused("EventsSinceSummary of an empty summary", err)
			refused("an empty replica merging it", NewDoc("empty").Merge(doc))
			var out bytes.Buffer
			refused("an unpruned Save", doc.Save(&out, SaveOptions{CacheFinalDoc: true}))
			if out.Len() > 0 {
				t.Errorf("%+v: a refused Save wrote %d bytes", opts, out.Len())
			}
			_, err = doc.TextAt(typed)
			refused("TextAt before the delete", err)
			if text, err := doc.TextAt(kept); err != nil || text != "keep " {
				t.Errorf("%+v: TextAt before the dropped inserts: %q, %v", opts, text, err)
			}
			if text, err := doc.TextAt(d.Version()); err != nil || text != d.Text() {
				t.Errorf("%+v: TextAt of every event the file held: %q, %v", opts, text, err)
			}
			if evs, err := doc.EventsSince(typed); err != nil || len(evs) != 5 {
				t.Errorf("%+v: EventsSince past the dropped inserts: %d events, %v", opts, len(evs), err)
			}
			// Saved pruned again, it is the file it was loaded from.
			var again bytes.Buffer
			if err := doc.Save(&again, opts); err != nil || !bytes.Equal(again.Bytes(), file.Bytes()) {
				t.Errorf("%+v: saved pruned again (%v), it differs from its file", opts, err)
			}
		}
		// Events has no error to return: it hands out placeholders.
		for _, ev := range loaded.Events() {
			if gone := ev.ID.Agent == "a" && ev.ID.Seq >= 5 && ev.ID.Seq < 9; gone != (ev.Content == utf8.RuneError) {
				t.Fatalf("%+v: event %v carries %q", opts, ev.ID, ev.Content)
			}
		}
		// Edits after the load reach a peer, and the peer's come back.
		peer := mustFork(t, d, "peer")
		if err := loaded.Insert(0, ">"); err != nil {
			t.Fatal(err)
		}
		if err := peer.Insert(peer.Len(), "<"); err != nil {
			t.Fatal(err)
		}
		if err := peer.Merge(loaded); err != nil {
			t.Fatalf("%+v: the peer merging the pruned load: %v", opts, err)
		}
		if err := loaded.Merge(peer); err != nil {
			t.Fatalf("%+v: the pruned load merging the peer: %v", opts, err)
		}
		if loaded.Text() != ">keep !<" || loaded.Fingerprint() != peer.Fingerprint() {
			t.Fatalf("%+v: %q and the peer's %q", opts, loaded.Text(), peer.Text())
		}
	}
}

// TestPrunedFileIsNoBatch: a pruned file is a whole document, not an
// event batch: the batch decoder refuses it, so it can never be journaled
// or sent as one.
func TestPrunedFileIsNoBatch(t *testing.T) {
	d := NewDoc("a")
	if err := d.Insert(0, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := d.Save(&file, SaveOptions{OmitDeletedContent: true}); err != nil {
		t.Fatal(err)
	}
	if evs, err := UnmarshalEventsAuto(file.Bytes()); err == nil {
		t.Fatalf("a pruned file decoded as a batch of %d events", len(evs))
	}
}

func mustFork(t *testing.T, d *Doc, agent string) *Doc {
	t.Helper()
	f, err := d.Fork(agent)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPrunedSaveRefusesLiveCharactersLeftOut: a pruned file whose content
// column marks a character that no delete removes as left out loads, as
// every pruned file is taken at its word; a pruned Save of the document
// finds the lie, since it works out again what is deleted, and refuses
// with an error that is not ErrPruned, rather than write the placeholder
// as the character.
func TestPrunedSaveRefusesLiveCharactersLeftOut(t *testing.T) {
	d := NewDoc("a")
	for _, step := range []error{d.Insert(0, "héllo wörld"), d.Delete(8, 3), d.Delete(0, 2), d.Insert(6, "!")} {
		if step != nil {
			t.Fatal(step)
		}
	}
	var file bytes.Buffer
	if err := d.Save(&file, SaveOptions{OmitDeletedContent: true}); err != nil {
		t.Fatal(err)
	}
	// Kept 0, left out 2 ("hé"), kept 6, left out 3 ("rld"), kept 1: the
	// lie leaves out the live "l" after "hé" as well.
	lie := reframed(t, file.Bytes(), func(cols [][]byte) {
		if string(cols[3]) != "\x00\x02\x06\x03\x01llo wö!" {
			t.Fatalf("the pruned content column is %q", cols[3])
		}
		cols[3] = []byte("\x00\x03\x05\x03\x01lo wö!")
	})
	loaded, err := Load(bytes.NewReader(lie), "b")
	if err != nil {
		t.Fatal(err)
	}
	if want := "�lo wö!"; loaded.Text() != want {
		t.Fatalf("the lying file loads as %q, want %q", loaded.Text(), want)
	}
	err = loaded.Save(new(bytes.Buffer), SaveOptions{OmitDeletedContent: true})
	if err == nil || errors.Is(err, ErrPruned) {
		t.Fatalf("a pruned Save of the lying file returned %v; want an error that is not ErrPruned", err)
	}
	SaveMatchesReference(t, loaded)
	// The sound file saves pruned again, to the same bytes.
	sound, err := Load(bytes.NewReader(file.Bytes()), "b")
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := sound.Save(&again, SaveOptions{OmitDeletedContent: true}); err != nil || !bytes.Equal(again.Bytes(), file.Bytes()) {
		t.Fatalf("a pruned Save of the sound file: %v, same bytes %v", err, bytes.Equal(again.Bytes(), file.Bytes()))
	}
}
