package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"egwalker"
	"egwalker/internal/colenc"
)

// verbatimPayloads is the reference stream of a cut: the snapshot and
// every WAL block's payload as it lies on disk, the frames a cold join
// sent before blocks were coalesced.
func verbatimPayloads(t testing.TB, cut *BlockCut) [][]byte {
	t.Helper()
	var out [][]byte
	if cut.snapSeq > 0 {
		data, err := cut.fs.ReadFile(filepath.Join(cut.dir, snapName(cut.snapSeq)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	for seq := cut.firstSeg; seq <= cut.lastSeg; seq++ {
		data, err := cut.fs.ReadFile(filepath.Join(cut.dir, segName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if seq == cut.lastSeg {
			data = data[:cut.lastLen]
		}
		w, err := walkSegmentBlocks(data, func(p []byte) error {
			out = append(out, slices.Clone(p))
			return nil
		})
		if err != nil || w.tail != nil {
			t.Fatalf("walking %s: %v %v", segName(seq), err, w.tail)
		}
	}
	return out
}

// streamed is what StreamBlocks sends for a cut, frame by frame.
func streamed(t testing.TB, cut *BlockCut) ([][]byte, error) {
	t.Helper()
	var frames [][]byte
	n, err := new(DocStore).StreamBlocks(cut, func(p []byte) error {
		frames = append(frames, slices.Clone(p))
		return nil
	})
	if n != len(frames) {
		t.Fatalf("StreamBlocks reported %d frames and sent %d", n, len(frames))
	}
	return frames, err
}

// decodeAll decodes each payload in turn and returns the events in order.
func decodeAll(t testing.TB, payloads [][]byte) []egwalker.Event {
	t.Helper()
	var all []egwalker.Event
	for i, p := range payloads {
		evs, err := egwalker.UnmarshalEventsAuto(p)
		if err != nil {
			t.Fatalf("frame %d of %d does not decode: %v", i, len(payloads), err)
		}
		all = append(all, evs...)
	}
	return all
}

// sameEvents reports whether two event lists are equal event by event, in
// order (a root event's Parents may be nil in one encoding and empty in
// the other).
func sameEvents(a, b []egwalker.Event) bool {
	return slices.EqualFunc(a, b, func(x, y egwalker.Event) bool {
		return x.ID == y.ID && x.Insert == y.Insert && x.Pos == y.Pos && x.Content == y.Content &&
			slices.Equal(x.Parents, y.Parents)
	})
}

// typeInto has doc type n characters at its end and returns the events.
func typeInto(t testing.TB, doc *egwalker.Doc, n int) []egwalker.Event {
	t.Helper()
	pre := doc.Version()
	if err := doc.Insert(doc.Len(), strings.Repeat(string(rune('a'+doc.NumEvents()%26)), n)); err != nil {
		t.Fatal(err)
	}
	evs, err := doc.EventsSince(pre)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func cutOf(t testing.TB, ds *DocStore) *BlockCut {
	t.Helper()
	cut, ok := ds.CutForServe()
	if !ok {
		t.Fatal("store cannot block-serve")
	}
	return cut
}

// TestColdJoinCoalescesTail: a cold join of a compacted document with a
// 26-upload tail, legacy and columnar blocks mixed, reads the snapshot
// and one tail frame, in fewer bytes than the blocks hold, and ends where
// the server is without the server materializing the document.
func TestColdJoinCoalescesTail(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Millisecond})
	const docID = "tail"
	w := egwalker.NewDoc("writer")
	if err := srv.Append(docID, typeInto(t, w, 100)); err != nil {
		t.Fatal(err)
	}
	err := srv.With(docID, func(ds *DocStore) error {
		if err := ds.Compact(); err != nil {
			return err
		}
		return ds.dematerialize()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 26; i++ {
		n := 2 + i%9 // 2 and 3 events go legacy, 4 to 10 columnar
		if err := srv.Append(docID, typeInto(t, w, n)); err != nil {
			t.Fatal(err)
		}
	}
	var verbatim [][]byte
	if err := srv.With(docID, func(ds *DocStore) error { verbatim = verbatimPayloads(t, cutOf(t, ds)); return nil }); err != nil {
		t.Fatal(err)
	}
	legacy := 0
	for _, p := range verbatim[1:] {
		if !colenc.Sniff(p) {
			legacy++
		}
	}
	if len(verbatim) != 27 || legacy == 0 || legacy == 26 {
		t.Fatalf("setup: %d payloads on disk, %d of the blocks legacy; want a snapshot and 26 blocks of both kinds", len(verbatim), legacy)
	}
	base := srv.MetricsSnapshot()

	doc, frames := coldCompactJoinFrames(t, srv, docID, w.NumEvents())
	if len(frames) != 2 || !bytes.Equal(frames[0], verbatim[0]) {
		t.Fatalf("join read %d frames, want the snapshot and one tail frame", len(frames))
	}
	var sent, onDisk int64
	for _, f := range frames {
		sent += int64(len(f))
	}
	for _, p := range verbatim {
		onDisk += int64(len(p))
	}
	if sent >= onDisk {
		t.Fatalf("join sent %d bytes, the verbatim stream %d", sent, onDisk)
	}
	m := srv.MetricsSnapshot()
	if m.LazyMaterializations != base.LazyMaterializations {
		t.Fatalf("cold join materialized the document (%d materializations)", m.LazyMaterializations-base.LazyMaterializations)
	}
	var fp uint64
	if err := srv.With(docID, func(ds *DocStore) (err error) { fp, err = ds.Fingerprint(); return err }); err != nil {
		t.Fatal(err)
	}
	if doc.Fingerprint() != fp || doc.Text() != w.Text() {
		t.Fatal("joiner's fingerprint differs from the server's")
	}
	t.Logf("%d blocks, %d B on disk; %d frames, %d B sent", len(verbatim)-1, onDisk, len(frames), sent)
}

// checkStream streams a cut and holds it to the verbatim stream: the same
// events in the same order, in want frames.
func checkStream(t *testing.T, cut *BlockCut, want int) (frames, verbatim [][]byte) {
	t.Helper()
	verbatim = verbatimPayloads(t, cut)
	frames, err := streamed(t, cut)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEvents(decodeAll(t, frames), decodeAll(t, verbatim)) {
		t.Fatal("the coalesced stream decodes to other events than the verbatim one")
	}
	if len(frames) != want {
		t.Fatalf("%d blocks streamed as %d frames, want %d", len(verbatim), len(frames), want)
	}
	return frames, verbatim
}

// TestStreamBlocksAcrossRotation: a tail spread over many segments is one
// frame.
func TestStreamBlocksAcrossRotation(t *testing.T) {
	ds, err := OpenLazy(t.TempDir(), "rot", "srv", Options{SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	w := egwalker.NewDoc("w")
	for i := 0; i < 12; i++ {
		if _, err := ds.IngestBatch(typeInto(t, w, 1+i%6), nil); err != nil {
			t.Fatal(err)
		}
	}
	cut := cutOf(t, ds)
	if cut.lastSeg-cut.firstSeg < 3 {
		t.Fatalf("setup: the tail spans segments %d to %d", cut.firstSeg, cut.lastSeg)
	}
	checkStream(t, cut, 1)
}

// TestStreamBlocksCutMidSegment: blocks journaled after the cut, in the
// same segment, stay out of the stream.
func TestStreamBlocksCutMidSegment(t *testing.T) {
	ds, err := OpenLazy(t.TempDir(), "mid", "srv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	w := egwalker.NewDoc("w")
	for i := 0; i < 5; i++ {
		if _, err := ds.IngestBatch(typeInto(t, w, 3+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	cut := cutOf(t, ds)
	for i := 0; i < 5; i++ {
		if _, err := ds.IngestBatch(typeInto(t, w, 3+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if cut.lastSeg != ds.activeSeq || cut.lastLen >= ds.activeSize {
		t.Fatal("setup: the cut does not end mid-segment")
	}
	frames, _ := checkStream(t, cut, 1)
	if n := len(decodeAll(t, frames)); n != cut.events {
		t.Fatalf("stream carries %d events, the cut %d", n, cut.events)
	}
}

// TestStreamBlocksOneBlockVerbatim: a tail of one block, and a tail of
// fewer events than a columnar frame holds, go out as the very bytes on
// disk.
func TestStreamBlocksOneBlockVerbatim(t *testing.T) {
	for _, sizes := range [][]int{{10}, {1, 1, 1}} {
		ds, err := OpenLazy(t.TempDir(), "one", "srv", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		w := egwalker.NewDoc("w")
		for _, n := range sizes {
			if _, err := ds.IngestBatch(typeInto(t, w, n), nil); err != nil {
				t.Fatal(err)
			}
		}
		frames, verbatim := checkStream(t, cutOf(t, ds), len(sizes))
		for i := range frames {
			if !bytes.Equal(frames[i], verbatim[i]) {
				t.Fatalf("tail %v: block %d was not sent byte-equal", sizes, i)
			}
		}
	}
}

// compressedBatch encodes events columnar with the content column
// compressed: a frame a client may send, which the journal keeps as sent.
func compressedBatch(t testing.TB, events []egwalker.Event) []byte {
	t.Helper()
	evs := make([]colenc.Event, len(events))
	for i, ev := range events {
		evs[i] = colenc.Event{ID: colenc.ID(ev.ID), Insert: ev.Insert, Pos: ev.Pos, Content: ev.Content}
		for _, p := range ev.Parents {
			evs[i].Parents = append(evs[i].Parents, colenc.ID(p))
		}
	}
	raw, err := colenc.Encode(evs, colenc.Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestStreamBlocksUnshrinkableGroupVerbatim: two compressed blocks of one
// repeated character merge into more bytes than they hold, so they go out
// as they are.
func TestStreamBlocksUnshrinkableGroupVerbatim(t *testing.T) {
	ds, err := OpenLazy(t.TempDir(), "dense", "srv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	w := egwalker.NewDoc("w")
	var raws [][]byte
	for i := 0; i < 2; i++ {
		evs := typeInto(t, w, 1000)
		raw := compressedBatch(t, evs)
		if _, err := ds.IngestBatch(evs, raw); err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	frames, _ := checkStream(t, cutOf(t, ds), 2)
	for i := range frames {
		if !bytes.Equal(frames[i], raws[i]) {
			t.Fatalf("block %d was not sent as journaled", i)
		}
	}
}

// TestStreamBlocksCapsGroupEvents: a frame holds at most
// maxCoalescedEvents events unless it is a block sent as it is.
func TestStreamBlocksCapsGroupEvents(t *testing.T) {
	ds, err := OpenLazy(t.TempDir(), "big", "srv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	w := egwalker.NewDoc("w")
	for _, n := range []int{2000, 2000, 2000, maxCoalescedEvents + 100, 5} {
		if _, err := ds.IngestBatch(typeInto(t, w, n), nil); err != nil {
			t.Fatal(err)
		}
	}
	// 2000+2000 merged; 2000 alone; the big block alone; the last alone.
	frames, verbatim := checkStream(t, cutOf(t, ds), 4)
	for i, want := range [][]byte{nil, verbatim[2], verbatim[3], verbatim[4]} {
		if want != nil && !bytes.Equal(frames[i], want) {
			t.Fatalf("frame %d is not the block it should be, verbatim", i)
		}
	}
	if n := len(decodeAll(t, frames[:1])); n != 4000 {
		t.Fatalf("first frame holds %d events, want 4000", n)
	}
}

// damageBlock rewrites the k-th block of a segment with one payload byte
// flipped and the block's checksum made right again: damage that came
// before the block was sealed, which only decoding the payload finds.
func damageBlock(t testing.TB, path string, k int) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i, off := 0, segHeaderLen
	var damaged []byte
	for off < len(data) {
		n, width := binary.Uvarint(data[off:])
		payload := data[off+width+4 : off+width+4+int(n)]
		if i == k {
			payload[len(payload)/2] ^= 0x10
			binary.LittleEndian.PutUint32(data[off+width:], crc32.Checksum(payload, blockCRCTable))
			damaged = slices.Clone(payload)
		}
		off += width + 4 + int(n)
		i++
	}
	if damaged == nil {
		t.Fatalf("%s has no block %d", path, k)
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return damaged
}

// TestStreamBlocksUndecodableBlockFallsBack: a block whose checksum holds
// but whose payload does not decode ends the stream with an error before
// anything of its group is sent — its bytes are never signed again as
// part of a merged frame — and the join converges through the decoded
// catch-up.
func TestStreamBlocksUndecodableBlockFallsBack(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Millisecond})
	const docID = "damaged"
	w := egwalker.NewDoc("writer")
	for i := 0; i < 5; i++ {
		if err := srv.Append(docID, typeInto(t, w, 6)); err != nil {
			t.Fatal(err)
		}
	}
	// The document is materialized, so the fallback has the history in
	// memory; the disk under it is what lies.
	if _, err := srv.Text(docID); err != nil {
		t.Fatal(err)
	}
	var damaged []byte
	err := srv.With(docID, func(ds *DocStore) error {
		if err := ds.Sync(); err != nil {
			return err
		}
		ds.mu.Lock()
		path := filepath.Join(ds.dir, segName(ds.activeSeq))
		ds.mu.Unlock()
		damaged = damageBlock(t, path, 2)
		frames, err := streamed(t, cutOf(t, ds))
		if err == nil {
			return fmt.Errorf("a block that does not decode was streamed (%d frames)", len(frames))
		}
		if len(frames) != 0 {
			return fmt.Errorf("%d frames went out before the damaged block's group ended the stream", len(frames))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	base := srv.MetricsSnapshot()
	doc, frames := coldCompactJoinFrames(t, srv, docID, w.NumEvents())
	if doc.Text() != w.Text() {
		t.Fatal("joiner diverged")
	}
	for _, f := range frames {
		if bytes.Contains(f, damaged) {
			t.Fatal("the damaged payload reached the joiner")
		}
	}
	if m := srv.MetricsSnapshot(); m.FullSnapshots != base.FullSnapshots+1 {
		t.Fatalf("full_snapshots %d → %d; want one fallback", base.FullSnapshots, m.FullSnapshots)
	}
}

// streamBlocksCase builds a WAL from data — three writers typing and
// deleting, uploading what the server lacks as blocks in the encoding a
// byte picks (the batch writer's, legacy at any size as older journals
// hold, or compressed columnar as a client may send), spread over up to
// four segments and cut at a block or mid-segment — and holds
// StreamBlocks to the verbatim stream: the same events in the same order,
// every frame decodable under colenc.MaxBatchEvents, and every frame that
// is not a block as it lay on disk what egwalker.MarshalBatches writes for
// its events.
func streamBlocksCase(t *testing.T, dir string, data []byte) {
	writers := []*egwalker.Doc{egwalker.NewDoc("a"), egwalker.NewDoc("bb"), egwalker.NewDoc("a-much-longer-agent-name")}
	server := egwalker.NewDoc("server")
	var blocks [][]byte
	var segEnds []int // block counts at which a segment ends
	for i, b := range data {
		w := writers[int(b)%len(writers)]
		switch (b >> 2) % 8 {
		case 0, 1, 2:
			if err := w.Insert(int(b>>5)%(w.Len()+1), strings.Repeat(string(rune('k'+i%7)), 1+int(b>>5))); err != nil {
				t.Fatal(err)
			}
		case 3:
			if w.Len() > 0 {
				if err := w.Delete(int(b>>5)%w.Len(), 1); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			evs, err := server.EventsSince(nil)
			if err == nil {
				_, err = w.Apply(evs)
			}
			if err != nil {
				t.Fatal(err)
			}
		case 5:
			segEnds = append(segEnds, len(blocks))
		default:
			all, err := w.EventsSince(nil)
			if err != nil {
				t.Fatal(err)
			}
			var news []egwalker.Event
			for _, ev := range all {
				if !server.Knows(ev.ID) {
					news = append(news, ev)
				}
			}
			if len(news) == 0 {
				continue
			}
			if _, err := server.Apply(news); err != nil {
				t.Fatal(err)
			}
			switch b >> 5 {
			case 0:
				raw, err := egwalker.MarshalEvents(news)
				if err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, raw)
			case 1:
				blocks = append(blocks, compressedBatch(t, news))
			default:
				raws, err := egwalker.MarshalBatches(news)
				if err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, raws...)
			}
		}
	}
	// Up to four segments of the blocks, the last ending at the cut.
	segEnds = append(segEnds[:min(len(segEnds), 3)], len(blocks))
	cut := &BlockCut{fs: OSFS{}, dir: dir, firstSeg: 1}
	from := 0
	for _, end := range segEnds {
		var seg bytes.Buffer
		seg.Write(segMagic[:])
		seg.WriteByte(segVersion)
		for _, b := range blocks[from:end] {
			sealed, err := sealBlock(b)
			if err != nil {
				t.Fatal(err)
			}
			seg.Write(sealed)
		}
		from = end
		cut.lastSeg++
		cut.lastLen = int64(seg.Len())
		if end == len(blocks) && end > 0 && data[0]&1 == 1 {
			// Blocks past the cut in the same segment stay out.
			sealed, _ := sealBlock(blocks[0])
			seg.Write(sealed)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(cut.lastSeg)), seg.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	verbatim := verbatimPayloads(t, cut)
	frames, err := streamed(t, cut)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEvents(decodeAll(t, frames), decodeAll(t, verbatim)) {
		t.Fatal("the coalesced stream decodes to other events than the verbatim one")
	}
	if len(frames) > len(verbatim) {
		t.Fatalf("%d blocks streamed as %d frames", len(verbatim), len(frames))
	}
	for i, f := range frames {
		if slices.ContainsFunc(verbatim, func(v []byte) bool { return bytes.Equal(v, f) }) {
			continue
		}
		evs := decodeAll(t, frames[i:i+1])
		if len(evs) > maxCoalescedEvents {
			t.Fatalf("frame %d merges %d events", i, len(evs))
		}
		want, err := egwalker.MarshalBatches(evs)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 1 || !bytes.Equal(f, want[0]) {
			t.Fatalf("frame %d (%d events) is not what the batch writer writes for its events", i, len(evs))
		}
	}
}

// FuzzStreamBlocks: for any sequence of blocks, the coalesced stream
// decodes to exactly the events of the verbatim one, in the same order.
func FuzzStreamBlocks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 24, 1, 25, 2, 26, 0, 28, 1, 29})
	f.Add([]byte{0, 0x18, 0x20, 0x38, 0x04, 0x58, 0x05, 0x14, 0x19, 0x1d, 0x3c, 0x78, 0xf8})
	f.Add([]byte{3, 0xe0, 0x1c, 0x01, 0xe4, 0x1d, 0x16, 0x12, 0xf9, 0x0c, 0x3c, 0x24, 0xfe, 0x9c, 0x1e})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		streamBlocksCase(t, t.TempDir(), data)
	})
}
