package egwalker

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"egwalker/internal/causal"
	"egwalker/internal/colenc"
	"egwalker/internal/core"
	"egwalker/internal/oplog"
)

// RefSave is how Save wrote a columnar file before it had a writer of its
// own (colenc.SaveDocument), kept as the reference Save must match byte for
// byte: the log walked as runs, each with its agent and its parents as
// strings (colenc.LogRuns), through the batch encoder, the text cached as
// a string. A pruned file is that frame with its content column rewritten
// (refPrune) from a map of the deleted events, one entry each. It is
// exported for the fuzz tests outside the package.
func RefSave(d *Doc, opts SaveOptions) ([]byte, error) {
	if !opts.OmitDeletedContent && len(d.pruned) > 0 {
		return nil, ErrPruned
	}
	deleted := map[causal.LV]bool{}
	if opts.OmitDeletedContent {
		err := core.ToIDOps(d.log, func(op core.IDOp) {
			if op.Kind == oplog.Delete && op.Target >= 0 {
				deleted[causal.LV(op.Target)] = true
			}
		})
		if err != nil {
			return nil, err
		}
		for _, sp := range d.pruned {
			for lv := sp.Start; lv < sp.End; lv++ {
				if !deleted[lv] {
					return nil, errLiveLeftOut
				}
			}
		}
	}
	runs := colenc.LogRuns(d.log, causal.Span{End: causal.LV(d.log.Len())})
	co := colenc.Options{Compress: opts.Compress && len(deleted) == 0}
	var data []byte
	var err error
	if opts.CacheFinalDoc {
		data, err = colenc.EncodeRunsDoc(runs, d.text.String(), co)
	} else {
		data, err = colenc.EncodeRuns(runs, co)
	}
	if err != nil || len(deleted) == 0 {
		return data, err
	}
	return refPrune(d.log, data, deleted, opts.Compress)
}

// refPrune rewrites the content column of frame, l's whole history
// unpruned and uncompressed, as the pruned column that leaves out the
// characters of deleted, compressed if compress is set and the writer
// would, and sets the flags to match.
func refPrune(l *oplog.Log, frame []byte, deleted map[causal.LV]bool, compress bool) ([]byte, error) {
	var lvs []causal.LV // of the inserts, in the order of the content column
	l.EachOp(causal.Span{End: causal.LV(l.Len())}, func(lv causal.LV, op oplog.Op) bool {
		if op.Kind == oplog.Insert {
			lvs = append(lvs, lv)
		}
		return true
	})
	flags := frame[4] | colenc.FlagPruned
	var zerr error
	out, err := reframe(frame, func(cols [][]byte) {
		chars := []rune(string(cols[3]))
		var col, kept []byte
		keep, n := true, 0
		for i, c := range chars {
			if k := !deleted[lvs[i]]; k != keep {
				col = binary.AppendUvarint(col, uint64(n))
				keep, n = k, 0
			}
			n++
			if keep {
				kept = utf8.AppendRune(kept, c)
			}
		}
		if len(chars) > 0 {
			col = binary.AppendUvarint(col, uint64(n))
		}
		col = append(col, kept...)
		if compress && len(col) < 16<<20 {
			var z bytes.Buffer
			zw, _ := flate.NewWriter(&z, flate.BestSpeed)
			zw.Write(col)
			zerr = zw.Close()
			col, flags = z.Bytes(), flags|colenc.FlagCompressed
		}
		cols[3] = col
	})
	if err == nil {
		err = zerr
	}
	if err != nil {
		return nil, err
	}
	out[4] = flags // outside the checksum
	return out, nil
}

// columnarOptions are the four ways Save writes an unpruned file.
var columnarOptions = []SaveOptions{{}, {CacheFinalDoc: true}, {Compress: true}, {CacheFinalDoc: true, Compress: true}}

// SaveMatchesReference fails the test unless Save writes what RefSave
// writes, or refuses what it refuses, with its error, and writes nothing,
// in each of the four ways of writing an unpruned file and two of writing
// a pruned one. It returns whether the reference refused any.
func SaveMatchesReference(t testing.TB, d *Doc) (refused bool) {
	t.Helper()
	for _, opts := range append(columnarOptions, SaveOptions{OmitDeletedContent: true},
		SaveOptions{OmitDeletedContent: true, CacheFinalDoc: true, Compress: true}) {
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
		refused = refused || wantErr != nil
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
