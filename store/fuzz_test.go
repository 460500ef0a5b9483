package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"egwalker"
	"egwalker/internal/colenc"
)

// validSegment builds a well-formed segment from a few edits — the
// fuzz baseline the mutator works from.
func validSegment(tb testing.TB) []byte {
	var buf bytes.Buffer
	buf.Write(segMagic[:])
	buf.WriteByte(segVersion)
	d := egwalker.NewDoc("seed")
	last := egwalker.Version{}
	steps := []func() error{
		func() error { return d.Insert(0, "hello fuzz") },
		func() error { return d.Delete(2, 3) },
		func() error { return d.Insert(d.Len(), " — tail✓") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			tb.Fatal(err)
		}
		evs, err := d.EventsSince(last)
		if err != nil {
			tb.Fatal(err)
		}
		blocks, err := encodeBlocks(evs)
		if err != nil {
			tb.Fatal(err)
		}
		buf.Write(bytes.Join(blocks, nil))
		last = d.Version()
	}
	return buf.Bytes()
}

// blockSeeds are segments of one or two blocks in both encodings — a
// whole merged history, the part of it one side lacked (parents outside
// the batch) and an empty batch — with copies cut short and copies with
// a bit flipped.
func blockSeeds(tb testing.TB) [][]byte {
	a := egwalker.NewDoc("alice")
	if err := a.Insert(0, "shared base, é 🙂"); err != nil {
		tb.Fatal(err)
	}
	b, err := a.Fork("bob")
	if err != nil {
		tb.Fatal(err)
	}
	base := b.Version()
	if err := a.Insert(0, "A: "); err != nil {
		tb.Fatal(err)
	}
	if err := b.Delete(3, 4); err != nil {
		tb.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		tb.Fatal(err)
	}
	tail, err := a.EventsSince(base)
	if err != nil {
		tb.Fatal(err)
	}
	block := func(evs []egwalker.Event, marshal func([]egwalker.Event) ([]byte, error)) []byte {
		payload, err := marshal(evs)
		if err != nil {
			tb.Fatal(err)
		}
		block, err := sealBlock(payload)
		if err != nil {
			tb.Fatal(err)
		}
		return block
	}
	var bodies [][]byte
	for _, evs := range [][]egwalker.Event{a.Events(), tail, nil} {
		legacy, compact := block(evs, egwalker.MarshalEvents), block(evs, egwalker.MarshalEventsCompact)
		bodies = append(bodies, legacy, compact, slices.Concat(legacy, compact))
	}
	header := []byte{'E', 'G', 'W', 'S', segVersion}
	var seeds [][]byte
	for _, body := range bodies {
		seeds = append(seeds, slices.Concat(header, body))
	}
	for _, body := range bodies {
		for _, cut := range []int{1, len(body) / 3, 2 * len(body) / 3, len(body) - 1} {
			seeds = append(seeds, slices.Concat(header, body[:cut]))
		}
		for _, at := range []int{len(body) / 2, len(body) - 1} {
			flipped := slices.Concat(header, body)
			flipped[len(header)+at] ^= 0x10
			seeds = append(seeds, flipped)
		}
	}
	return seeds
}

// resealed is a copy of a segment with the checksums of its blocks redone
// — the block's and, in a columnar payload, the frame's — so that a
// mutation reaches the decoders instead of stopping at a checksum.
func resealed(data []byte) []byte {
	out := bytes.Clone(data)
	for off := segHeaderLen; off < len(out); {
		n, k := binary.Uvarint(out[off:])
		if k <= 0 || len(out)-off-k < 4 || uint64(len(out)-off-k-4) < n {
			break
		}
		payload := out[off+k+4 : off+k+4+int(n)]
		if colenc.Sniff(payload) && len(payload) >= 9 {
			binary.LittleEndian.PutUint32(payload[5:9], crc32.Checksum(payload[9:], blockCRCTable))
		}
		binary.LittleEndian.PutUint32(out[off+k:], crc32.Checksum(payload, blockCRCTable))
		off += k + 4 + int(n)
	}
	return out
}

// FuzzSegmentReplay: replayBlocks must never panic on arbitrary bytes,
// must accept what it reports as valid (applying each block's events to a
// fresh doc as it walks), and truncating a segment at its reported
// validLen must replay to the same state (the torn-tail repair is a fixed
// point). With the checksums redone, every batch replay accepts must
// encode again through encodeBlocks — the one writer, which picks its
// own encoding whatever the block's was — into blocks that replay as the
// same events.
func FuzzSegmentReplay(f *testing.F) {
	good := validSegment(f)
	f.Add(good)
	f.Add(good[:len(good)-3])                     // torn tail
	f.Add([]byte{})                               // empty file
	f.Add([]byte{'E', 'G', 'W', 'S', segVersion}) // header only
	f.Add([]byte("not a segment at all"))
	for _, seed := range blockSeeds(f) {
		f.Add(seed)
	}

	replayTo := func(t *testing.T, path string) (string, *blockWalk, bool) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc := egwalker.NewDoc("fuzz")
		refused := false
		w, err := replayBlocks(data, func(evs []egwalker.Event) error {
			_, err := doc.Apply(evs)
			refused = err != nil
			return err
		})
		if err != nil || refused {
			// Checksummed but structurally hostile events (e.g.
			// positions out of range) are rejected by Apply; that is
			// the correct outcome, not a replay.
			return "", nil, false
		}
		return doc.Text(), w, true
	}

	reencodes := func(t *testing.T, data []byte) {
		batches, _, err := replayed(data)
		if err != nil {
			return
		}
		for _, evs := range batches {
			blocks, err := encodeBlocks(evs)
			if err != nil {
				t.Fatalf("replay accepted %d events the writer refuses: %v", len(evs), err)
			}
			again, w, err := replayed(slices.Concat(data[:segHeaderLen], bytes.Join(blocks, nil)))
			if err != nil {
				t.Fatalf("blocks written from accepted events are not a segment: %v", err)
			}
			if w.tail != nil {
				t.Fatalf("blocks written from accepted events do not replay: %v", w.tail)
			}
			back := slices.Concat(again...)
			if len(back) != len(evs) || len(evs) > 0 && !reflect.DeepEqual(back, evs) {
				t.Fatalf("%d events replay as %d different ones", len(evs), len(back))
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		reencodes(t, resealed(data))
		dir := t.TempDir()
		path := filepath.Join(dir, "wal-00000001.seg")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Skip()
		}
		text, w, ok := replayTo(t, path)
		if !ok {
			return
		}
		if w.validLen > int64(len(data)) {
			t.Fatalf("validLen %d > file size %d", w.validLen, len(data))
		}
		if w.validLen < segHeaderLen {
			// Segment torn inside its header: recovery recreates it
			// rather than truncating; nothing further to check here.
			return
		}
		// Repair fixed point: truncating to validLen must replay to the
		// identical state with no remaining tail error.
		if err := os.Truncate(path, w.validLen); err != nil {
			t.Fatal(err)
		}
		again, w2, ok := replayTo(t, path)
		if !ok {
			t.Fatal("truncated replay rejected what the full replay accepted")
		}
		if w2.tail != nil {
			t.Fatalf("tail error survived truncation to validLen: %v", w2.tail)
		}
		if again != text {
			t.Fatalf("truncated replay text %q != original %q", again, text)
		}
	})
}
