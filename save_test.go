package egwalker

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"egwalker/internal/causal"
	"egwalker/internal/colenc"
)

// RefSave is how Save wrote a columnar file before it had a writer of its
// own (colenc.SaveDocument), kept as the reference Save must match byte for
// byte: the log walked as runs, each with its agent and its parents as
// strings (colenc.LogRuns), through the batch encoder, the text cached as
// a string. It is exported for the fuzz tests outside the package.
func RefSave(d *Doc, opts SaveOptions) ([]byte, error) {
	runs := colenc.LogRuns(d.log, causal.Span{End: causal.LV(d.log.Len())})
	co := colenc.Options{Compress: opts.Compress}
	if opts.CacheFinalDoc {
		return colenc.EncodeRunsDoc(runs, d.text.String(), co)
	}
	return colenc.EncodeRuns(runs, co)
}

// columnarOptions are the four ways Save writes a columnar file.
var columnarOptions = []SaveOptions{{}, {CacheFinalDoc: true}, {Compress: true}, {CacheFinalDoc: true, Compress: true}}

// SaveMatchesReference fails the test unless Save writes what RefSave
// writes, or refuses what it refuses, with its error, and writes nothing,
// in each of the four ways of writing a columnar file. It returns whether
// the reference refused.
func SaveMatchesReference(t testing.TB, d *Doc) (refused bool) {
	t.Helper()
	for _, opts := range columnarOptions {
		want, wantErr := RefSave(d, opts)
		var got bytes.Buffer
		err := d.Save(&got, opts)
		switch {
		case fmt.Sprint(err) != fmt.Sprint(wantErr):
			t.Fatalf("%+v: Save: %v; reference: %v", opts, err, wantErr)
		case err != nil && got.Len() > 0:
			t.Fatalf("%+v: Save refused (%v) and wrote %d bytes", opts, err, got.Len())
		case !bytes.Equal(got.Bytes(), want):
			t.Fatalf("%+v: Save wrote %d bytes that differ from the reference's %d", opts, got.Len(), len(want))
		}
		refused = wantErr != nil
	}
	return refused
}

// TestSaveMatchesReference: on the golden files, loaded, and on documents
// that merged concurrent work, Save writes the reference's bytes.
func TestSaveMatchesReference(t *testing.T) {
	files, err := filepath.Glob("testdata/colenc/doc-*")
	if err != nil || len(files) == 0 {
		t.Fatalf("golden documents: %v %v", files, err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Load(bytes.NewReader(data), "reader")
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		SaveMatchesReference(t, d)
	}
	SaveMatchesReference(t, NewDoc("empty"))
	SaveMatchesReference(t, latticeDoc(t, 3_000))
	// Names of every length up to the limit, multi-byte text, and a parent
	// far enough back to be written as (agent, seq).
	a, b := NewDoc(strings.Repeat("α", 2048)), NewDoc("")
	for i := range 100 {
		if err := b.Insert(b.Len(), fmt.Sprint(i%10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Insert(0, "ünïcødé 🙂"); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(3, "x"); err != nil {
		t.Fatal(err)
	}
	SaveMatchesReference(t, a)
}

// TestSaveRefusesWhatTheEncoderRefuses: a document whose log holds what no
// file may — a character that is not a valid rune, an event at a negative
// position, an agent name over 4096 bytes, an event with over 1024 parents
// — is not saved, and nothing is written. Apply lets the first two and the
// last in from a hostile peer: the log takes an event before the text
// finds it impossible.
func TestSaveRefusesWhatTheEncoderRefuses(t *testing.T) {
	id := func(agent string, seq int) EventID { return EventID{Agent: agent, Seq: seq} }
	typed := NewDoc("t")
	if err := typed.Insert(0, "ab"); err != nil {
		t.Fatal(err)
	}
	backspaces := make([]Event, 3) // at 1, 0 and -1
	for i := range backspaces {
		backspaces[i] = Event{ID: id("t", 2+i), Parents: []EventID{id("t", 1+i)}, Pos: 1 - i}
	}
	var roots []Event
	var heads []EventID
	for i := range 1025 {
		roots = append(roots, Event{ID: id(fmt.Sprint("r", i), 0), Insert: true, Content: 'r'})
		heads = append(heads, roots[i].ID)
	}
	long := NewDoc(strings.Repeat("n", 4097))
	if err := long.Insert(0, "hi"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		doc    *Doc
		events []Event
	}{
		{"invalid rune", NewDoc("d"), []Event{{ID: id("x", 0), Insert: true, Content: 0xD800}}},
		{"negative rune", NewDoc("d"), []Event{{ID: id("x", 0), Insert: true, Content: -1}}},
		{"insert at -1", NewDoc("d"), []Event{{ID: id("x", 0), Insert: true, Pos: -1, Content: 'a'}}},
		{"backspace past 0", typed, backspaces},
		{"agent name of 4097 bytes", long, nil},
		{"1025 parents", NewDoc("d"), append(roots, Event{ID: id("z", 0), Parents: heads, Insert: true, Content: 'z'})},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.doc.Apply(c.events) // the error, if any, is the text's
			if !SaveMatchesReference(t, c.doc) {
				t.Fatalf("the reference encoder saved a document holding %s", c.name)
			}
		})
	}
}
