package colenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"egwalker/internal/causal"
	"egwalker/internal/oplog"
)

// prunedLog is "héllo wörld" typed, its first two and its last three
// characters deleted (a backspace run and a forward one), then "!"
// typed: the deleted inserts are events 0–1 and 8–10.
func prunedLog(t *testing.T) (*oplog.Log, []causal.Span) {
	t.Helper()
	l := oplog.New()
	if _, err := l.AddInsert("a", nil, 0, "héllo wörld"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddDelete("a", []causal.LV{10}, 8, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddDelete("a", []causal.LV{13}, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddInsert("a", []causal.LV{15}, 6, "!"); err != nil {
		t.Fatal(err)
	}
	return l, []causal.Span{{Start: 0, End: 2}, {Start: 8, End: 11}}
}

// TestSaveDocumentPrunes: the pruned content column is the stretches —
// kept first, empty here — and the kept characters; loaded, the frame
// gives back the log with a placeholder for each dropped character, and
// which those were.
func TestSaveDocumentPrunes(t *testing.T) {
	l, dropped := prunedLog(t)
	frame, err := SaveDocument(l, nil, dropped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if frame[4] != FlagPruned {
		t.Fatalf("flags %#x", frame[4])
	}
	want := append([]byte{0, 2, 6, 3, 1}, "llo wö!"...)
	if !bytes.HasSuffix(frame, append(binary.AppendUvarint(nil, uint64(len(want))), want...)) {
		t.Fatalf("the frame % x does not end in the content column % x", frame, want)
	}
	doc, err := LoadDocument(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Pruned, dropped) {
		t.Fatalf("loaded %v as dropped, want %v", doc.Pruned, dropped)
	}
	if got := string(doc.Log.Content()); got != "��llo wö���!" {
		t.Fatalf("the log holds %q", got)
	}
	for _, opts := range []Options{{}, {Compress: true}} {
		again, err := SaveDocument(doc.Log, nil, doc.Pruned, opts)
		if err != nil {
			t.Fatal(err)
		}
		if opts == (Options{}) && !bytes.Equal(again, frame) {
			t.Fatalf("saved again as % x, not % x", again, frame)
		}
		if d, err := LoadDocument(again); err != nil || !reflect.DeepEqual(d.Pruned, dropped) {
			t.Fatalf("%+v: loaded again: %v, dropped %v", opts, err, d.Pruned)
		}
	}
}

// TestLoadDocumentRefusesBadPrunedColumns: stretches that overrun the
// inserts, fall short of them or are empty past the first, and kept
// characters short, over or not UTF-8 are refused.
func TestLoadDocumentRefusesBadPrunedColumns(t *testing.T) {
	l, dropped := prunedLog(t)
	frame, err := SaveDocument(l, nil, dropped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := append([]byte{0, 2, 6, 3, 1}, "llo wö!"...)
	for _, col := range [][]byte{
		append([]byte{0, 2, 6, 4, 1}, "llo wö!"...), // overrun
		append([]byte{0, 2, 6, 3}, "llo wö!"...),    // short: "l" reads as a stretch
		append([]byte{0, 2, 6, 0, 3, 1}, "llo wö!"...),
		append([]byte{0, 2, 6, 3, 1}, "llo wö"...),
		append([]byte{0, 2, 6, 3, 1}, "llo wö!!"...),
		append([]byte{0, 2, 6, 3, 1}, "llo w\xff!"...),
		{},
	} {
		// The content column is the last, its length one byte.
		bad := append(bytes.Clone(frame[:len(frame)-len(good)-1]), byte(len(col)))
		bad = append(bad, col...)
		binary.LittleEndian.PutUint32(bad[5:9], crc32.Checksum(bad[9:], crcTable))
		if _, err := LoadDocument(bad); err == nil {
			t.Errorf("content column % x loaded", col)
		}
	}
}

// TestPrunedFrameIsADocumentNotABatch: every batch decoder refuses a
// pruned frame, before it reads a column.
func TestPrunedFrameIsADocumentNotABatch(t *testing.T) {
	l, dropped := prunedLog(t)
	frame, err := SaveDocument(l, nil, dropped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := GetDecoder()
	defer d.Put()
	for name, decode := range map[string]func() error{
		"Decode":             func() error { _, err := Decode(frame); return err },
		"DecodeRuns":         func() error { _, err := DecodeRuns(frame, MaxBatchEvents); return err },
		"Decoder.DecodeRuns": func() error { _, err := d.DecodeRuns(frame, MaxBatchEvents); return err },
		"Inspect":            func() error { _, err := Inspect(frame); return err },
		"Decoder.Inspect":    func() error { _, err := d.Inspect(frame); return err },
	} {
		if err := decode(); !errors.Is(err, errPrunedBatch) {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := LoadDocument(frame); err != nil {
		t.Fatal(err)
	}
	// A bit past the known ones is still unknown, pruned set or not.
	frame[4] |= 1 << 3
	if _, err := LoadDocument(frame); err == nil || !strings.Contains(err.Error(), "unsupported flags") {
		t.Fatalf("unknown flag: %v", err)
	}
}
