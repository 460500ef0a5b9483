package store

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"egwalker"
	"egwalker/internal/colenc"
)

// replayed walks a segment image through replayBlocks and returns the
// batches it handed over, in order.
func replayed(data []byte) ([][]egwalker.Event, *blockWalk, error) {
	var batches [][]egwalker.Event
	w, err := replayBlocks(data, func(evs []egwalker.Event) error {
		batches = append(batches, evs)
		return nil
	})
	return batches, w, err
}

// TestReplayDamageVerdicts holds replayBlocks to what the reader it
// replaced (a stream reader of one block at a time, decoding as it went)
// gave for each kind of damage: the same batches, the same validLen and
// the same torn-tail verdict. The wants were recorded from that reader.
// A checksummed payload that does not decode must also come back through
// tail, as that reader's error did, not as replay's own error.
func TestReplayDamageVerdicts(t *testing.T) {
	d := egwalker.NewDoc("alice")
	if err := d.Insert(0, "hello"); err != nil {
		t.Fatal(err)
	}
	first := d.Events()
	v := d.Version()
	if err := d.Insert(5, " world"); err != nil {
		t.Fatal(err)
	}
	second, err := d.EventsSince(v)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]egwalker.Event{first, second}
	legacy, err := egwalker.MarshalEvents(first)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := egwalker.MarshalEventsCompact(second)
	if err != nil {
		t.Fatal(err)
	}
	seal := func(payload []byte) []byte {
		b, err := sealBlock(payload)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	header := []byte{'E', 'G', 'W', 'S', segVersion}
	seg := func(blocks ...[]byte) []byte { return slices.Concat(append([][]byte{header}, blocks...)...) }
	b0, b1 := seal(legacy), seal(compact)
	flipped := slices.Clone(b1)
	flipped[len(flipped)-3] ^= 0x20
	damagedFrame := slices.Clone(compact)
	damagedFrame[len(damagedFrame)/2] ^= 0x20
	overLen := binary.AppendUvarint(nil, egwalker.MaxBatchBytes+1)
	overLen = append(overLen, 0, 0, 0, 0)

	for _, c := range []struct {
		name string
		data []byte
		// notSegment: replay refuses the file as a whole.
		notSegment bool
		// batches is how many of the two batches come back, validLen
		// where the good part ends, torn whether tornTail(tail).
		batches  int
		validLen int64
		torn     bool
		// undecodable: a checksummed payload does not decode.
		undecodable bool
	}{
		{name: "whole segment", data: seg(b0, b1), batches: 2, validLen: 100},
		{name: "header only", data: seg(), validLen: 5},
		{name: "header cut short", data: header[:3], torn: true},
		{name: "bad magic", data: append([]byte("EGWX\x01"), b0...), notSegment: true},
		{name: "bad version", data: append([]byte("EGWS\x02"), b0...), notSegment: true},
		{name: "torn length prefix", data: seg(b0, []byte{0x80}), batches: 1, validLen: 56, torn: true},
		{name: "length overflow", data: seg(b0, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}), batches: 1, validLen: 56, torn: true},
		{name: "oversized length claim", data: seg(b0, overLen), batches: 1, validLen: 56, torn: true},
		{name: "crc mismatch", data: seg(b0, flipped), batches: 1, validLen: 56, torn: true},
		{name: "block cut short", data: seg(b0, b1[:len(b1)-2]), batches: 1, validLen: 56, torn: true},
		{name: "checksum cut short", data: seg(b0, b1[:2]), batches: 1, validLen: 56, torn: true},
		{name: "payload with a bad op kind", data: seg(b0, seal([]byte("\x01\x01a\x01\x00\x00\x00\x07\x00")), b1), batches: 1, validLen: 56, undecodable: true},
		{name: "payload that ends between fields", data: seg(b0, seal([]byte("\x01\x01a\x01\x00")), b1), batches: 1, validLen: 56, torn: true, undecodable: true},
		{name: "payload that ends inside a field", data: seg(b0, seal([]byte("\x01\x01a\x01\x00\x80")), b1), batches: 1, validLen: 56, torn: true, undecodable: true},
		{name: "empty payload", data: seg(b0, seal(nil), b1), batches: 1, validLen: 56, torn: true, undecodable: true},
		{name: "columnar payload with a damaged frame", data: seg(b0, seal(damagedFrame), b1), batches: 1, validLen: 56, undecodable: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			batches, w, err := replayed(c.data)
			if c.notSegment {
				if err == nil {
					t.Fatalf("replayed a file that is not a segment: %v", batches)
				}
				return
			}
			if err != nil {
				t.Fatalf("replay error %v, want the damage in tail", err)
			}
			if len(batches) != c.batches || c.batches > 0 && !reflect.DeepEqual(batches, want[:c.batches]) {
				t.Errorf("%d batches %v, want the first %d", len(batches), batches, c.batches)
			}
			if w.validLen != c.validLen {
				t.Errorf("validLen %d, want %d", w.validLen, c.validLen)
			}
			if tornTail(w.tail) != c.torn {
				t.Errorf("tornTail(%v) = %v, want %v", w.tail, !c.torn, c.torn)
			}
			if c.undecodable && w.tail == nil {
				t.Error("an undecodable payload left no tail")
			}
		})
	}

	// A block cut anywhere is torn, never corrupt or whole; a bit flipped
	// anywhere in it is caught.
	whole := seg(b0)
	for cut := segHeaderLen + 1; cut < len(whole); cut++ {
		batches, w, err := replayed(whole[:cut])
		if err != nil || len(batches) != 0 || w.validLen != segHeaderLen || !errors.Is(w.tail, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, %d batches, validLen %d, tail %v; want a torn block", cut, err, len(batches), w.validLen, w.tail)
		}
	}
	for at := segHeaderLen; at < len(whole); at++ {
		for bit := range 8 {
			flipped := slices.Clone(whole)
			flipped[at] ^= 1 << bit
			batches, w, err := replayed(flipped)
			if err == nil && w.tail == nil {
				t.Fatalf("bit %d of byte %d flipped: replays as %v", bit, at, batches)
			}
		}
	}
}

// TestCommitsJournalTheSmallerEncoding: a materialized document's commit
// of n events is journaled as one block in the encoding
// egwalker.MarshalBatches picks — the legacy codec for up to 3 events,
// columnar from 4 — and the segment replays to the document.
func TestCommitsJournalTheSmallerEncoding(t *testing.T) {
	ds := mustOpen(t, t.TempDir(), "doc", Options{})
	defer ds.Close()
	for n := 1; n <= 7; n++ {
		if err := ds.Insert(ds.Len(), strings.Repeat(string(rune('0'+n)), n)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(ds.dir, segName(ds.activeSeq)))
	if err != nil {
		t.Fatal(err)
	}
	var columnar []bool
	if _, err := walkSegmentBlocks(data, func(payload []byte) error {
		columnar = append(columnar, colenc.Sniff(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, false, true, true, true, true}
	if !reflect.DeepEqual(columnar, want) {
		t.Fatalf("commits of 1..7 events journaled columnar %v, want %v", columnar, want)
	}
	batches, w, err := replayed(data)
	if err != nil || w.tail != nil {
		t.Fatalf("replay: %v, tail %v", err, w.tail)
	}
	if back := slices.Concat(batches...); !reflect.DeepEqual(back, ds.Events()) {
		t.Fatalf("the journal replays as %d events, the document holds %d", len(back), ds.NumEvents())
	}
}
