package egwalker

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// latticeDoc returns a document of about events events typed by two
// authors at once, each seeing the other's bursts three steps late with a
// pause every forty steps in which both catch up: a graph that never goes
// linear for long, a dozen events to an entry — the shape on which the
// history, not the text, is what a loaded document weighs.
func latticeDoc(tb testing.TB, events int) *Doc {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	docs := [2]*Doc{NewDoc("ann"), NewDoc("bob")}
	var inbox [2][][]Event
	deliver := func(i, keep int) {
		for len(inbox[i]) > keep {
			if _, err := docs[i].Apply(inbox[i][0]); err != nil {
				tb.Fatal(err)
			}
			inbox[i] = inbox[i][1:]
		}
	}
	for step := 0; docs[0].NumEvents() < events; step++ {
		i := step % 2
		d := docs[i]
		deliver(i, 3)
		before := d.Version()
		var err error
		if d.Len() > 20 && rng.Intn(4) == 0 {
			k := 1 + rng.Intn(8)
			err = d.Delete(rng.Intn(d.Len()-k), k)
		} else {
			s := make([]byte, 1+rng.Intn(20))
			for j := range s {
				s[j] = byte('a' + rng.Intn(26))
			}
			err = d.Insert(rng.Intn(d.Len()+1), string(s))
		}
		if err != nil {
			tb.Fatal(err)
		}
		evs, err := d.EventsSince(before)
		if err != nil {
			tb.Fatal(err)
		}
		inbox[1-i] = append(inbox[1-i], evs)
		if step%40 == 39 {
			deliver(0, 0)
			deliver(1, 0)
		}
	}
	deliver(0, 0)
	deliver(1, 0)
	if err := docs[0].Merge(docs[1]); err != nil {
		tb.Fatal(err)
	}
	return docs[0]
}

// retained runs fn and returns what it returns together with the heap
// that stays allocated because of it.
func retained[T any](fn func() T) (T, int) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	v := fn()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return v, int(m1.HeapAlloc) - int(m0.HeapAlloc)
}

// TestLogBytesPerEvent is the memory budget of an open document, in
// bytes of history per event: the paper's "steady state" (§4.4, Fig. 10)
// is the text plus this. A change that adds a field to a record, a
// pointer per run or slack to a loaded array shows here.
func TestLogBytesPerEvent(t *testing.T) {
	load := func(file []byte) *Doc {
		d, err := Load(bytes.NewReader(file), "reader")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// The golden document is 11 events by two agents: fixed costs — the
	// agent table, arrays rounded up to the allocator's size classes —
	// are most of it. What must not happen is that they grow.
	golden, err := os.ReadFile("testdata/colenc/doc-cached.egc")
	if err != nil {
		t.Fatal(err)
	}
	ms := load(golden).MemStats()
	if ms.Events == 0 || ms.OpSpans == 0 || ms.GraphEntries == 0 || ms.TextBytes == 0 {
		t.Fatalf("golden document: %+v", ms)
	}
	if per := float64(ms.LogBytes) / float64(ms.Events); per > 48 {
		t.Errorf("golden document: %d bytes of history for %d events, %.1f B/event; budget 48", ms.LogBytes, ms.Events, per)
	}

	var file bytes.Buffer
	if err := latticeDoc(t, 20_000).Save(&file, SaveOptions{CacheFinalDoc: true}); err != nil {
		t.Fatal(err)
	}
	// Measured twice, the larger kept: garbage that outlives the collections
	// before a measurement is freed inside it and reads as less retained.
	d, heap := retained(func() *Doc { return load(file.Bytes()) })
	d2, heap2 := retained(func() *Doc { return load(file.Bytes()) })
	heap = max(heap, heap2)
	ms = d.MemStats()
	per := float64(ms.LogBytes) / float64(ms.Events)
	t.Logf("lattice: %d events in %d op spans and %d graph entries; history %d B (%.2f B/event), text %d B, retained heap %d B",
		ms.Events, ms.OpSpans, ms.GraphEntries, ms.LogBytes, per, ms.TextBytes, heap)
	// Nine or ten events to a span and to an entry: 24 bytes of each, four
	// per character inserted, twelve per stored parent, four per entry in
	// its agent's index, and what the allocator's size classes round each
	// array up by. The pointerful layout this replaced held 24.3 B/event.
	if per > 13.5 {
		t.Errorf("lattice: %.2f B/event of history; budget 13.5", per)
	}
	// What MemStats adds up is what the heap holds: the arrays are all
	// there is to the history, and Load leaves no slack in them.
	if sum := ms.LogBytes + ms.TextBytes; sum < heap*90/100 || sum > heap*110/100 {
		t.Errorf("lattice: MemStats adds up to %d B (history %d, text %d), the heap retains %d B: more than a tenth apart", sum, ms.LogBytes, ms.TextBytes, heap)
	}
	runtime.KeepAlive(d)
	runtime.KeepAlive(d2)
}

// TestLoadLeavesNoSlack: Load sizes the history's arrays from what it has
// counted in the file's columns before it fills them, so what a loaded
// document holds is what its records need, up to the allocator's size
// classes — and it is what the same document holds when it has grown by
// appends, less the slack appends leave.
func TestLoadLeavesNoSlack(t *testing.T) {
	grown := latticeDoc(t, 6_000)
	var file bytes.Buffer
	if err := grown.Save(&file, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&file, "reader")
	if err != nil {
		t.Fatal(err)
	}
	g, l := grown.MemStats(), loaded.MemStats()
	if g.Events != l.Events || g.OpSpans != l.OpSpans || g.GraphEntries != l.GraphEntries {
		t.Fatalf("loaded %+v, saved %+v", l, g)
	}
	inserted := 0
	for _, ev := range loaded.Events() {
		if ev.Insert {
			inserted++
		}
	}
	// Two parents to an entry at most here, twelve bytes each with the
	// link; the agent table is small change.
	need := 24*l.OpSpans + 4*inserted + (24+4)*l.GraphEntries
	if l.LogBytes < need || l.LogBytes > need+24*l.GraphEntries+need/8 {
		t.Errorf("loaded history holds %d B; its records need %d and at most %d with every entry storing two parents", l.LogBytes, need, need+24*l.GraphEntries)
	}
	if l.LogBytes > g.LogBytes {
		t.Errorf("loaded history holds %d B, more than the %d B of the document that grew by appends", l.LogBytes, g.LogBytes)
	}
}

// TestLoadAllocatesWhatItKeeps: Load fills the arrays the document keeps
// straight from the file's columns and the rope's leaves straight from the
// cached text, so what it allocates beside them is the file read into
// memory (one buffer of the size the reader reports), the text as a string
// and the loader's own few hundred bytes: 1.28 times what stays, measured.
// With io.ReadAll's doubling buffer and the text converted to one []rune
// and chopped into leaves, it was 2.40 times; through a slice of run
// structs with an ID per parent, a log sized by a pass over them and a
// second copy of the characters, 6.42 times.
func TestLoadAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector the graph's traversals keep their heaps on the heap: 2.06 times")
	}
	var file bytes.Buffer
	if err := latticeDoc(t, 6_000).Save(&file, SaveOptions{CacheFinalDoc: true}); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err := Load(bytes.NewReader(file.Bytes()), "reader")
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	ms := d.MemStats()
	alloc, keeps := int(m1.TotalAlloc-m0.TotalAlloc), ms.LogBytes+ms.TextBytes
	t.Logf("a file of %d B, %d events: Load allocated %d B for a document of %d B (history %d, text %d): %.2f times",
		file.Len(), ms.Events, alloc, keeps, ms.LogBytes, ms.TextBytes, float64(alloc)/float64(keeps))
	if 100*alloc > 140*keeps {
		t.Errorf("Load allocated %d B, %.2f times the %d B the document keeps; want at most 1.40 times", alloc, float64(alloc)/float64(keeps), keeps)
	}
}

// TestRopeBytesAfterEditing: a document typed into and never reloaded
// holds no more text bytes per character than it did when the rope copied
// its leaf on every insert, which left every leaf it touched exact-size. A
// leaf that grows now keeps headroom for the typing that goes on in it, so
// the deletes must give memory back: a leaf far below its capacity merges
// into a neighbour or shrinks. One author types 50 000 events — bursts of
// 1–20 characters at the cursor, the cursor jumping in one burst of 33 —
// with backspace bursts of 1–10 making up none, 30 % or 55 % of them.
func TestRopeBytesAfterEditing(t *testing.T) {
	for _, c := range []struct {
		backspaces int     // percent of bursts
		copied     float64 // B/character when every insert copied its leaf
	}{{0, 5.09}, {30, 5.10}, {55, 5.46}} {
		rng := rand.New(rand.NewSource(int64(c.backspaces) + 1))
		d := NewDoc("typist")
		cursor := 0
		for d.NumEvents() < 50_000 {
			var err error
			switch n := 1 + rng.Intn(20); {
			case rng.Intn(33) == 0:
				cursor = rng.Intn(d.Len() + 1)
			case rng.Intn(100) < c.backspaces:
				n = min(1+(n-1)/2, cursor)
				err = d.Delete(cursor-n, n)
				cursor -= n
			default:
				s := make([]byte, n)
				for j := range s {
					s[j] = byte('a' + rng.Intn(26))
				}
				err = d.Insert(cursor, string(s))
				cursor += n
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		per := float64(d.MemStats().TextBytes) / float64(d.Len())
		t.Logf("%d %% backspaces: %d characters, %.2f B each (%.2f when every insert copied its leaf)", c.backspaces, d.Len(), per, c.copied)
		if per > c.copied*1.05 {
			t.Errorf("%d %% backspaces: %.2f B per character; want at most %.2f, 5 %% over %.2f", c.backspaces, per, c.copied*1.05, c.copied)
		}
	}
}

// TestLoadHugeClaim: a frame's header may claim any number of events; what
// Load reserves comes from the runs it has decoded. A frame of under a
// hundred bytes that claims 2^31 events fails, and fails cheaply.
func TestLoadHugeClaim(t *testing.T) {
	frame := claimFrame(t, 1<<31)
	if len(frame) >= 100 {
		t.Fatalf("frame is %d bytes", len(frame))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := Load(bytes.NewReader(frame), "reader")
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("a frame claiming 2^31 events loaded")
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 64<<10 {
		t.Errorf("rejecting it allocated %d bytes; want under 64 KB", got)
	}
	// The most a frame of its size may claim — a single delete run can be
	// that long — is honest only if the columns bear it out.
	if _, err := Load(bytes.NewReader(claimFrame(t, 90<<16)), "reader"); err == nil {
		t.Fatal("a frame claiming 90·2^16 events for 11 loaded")
	}
	runtime.ReadMemStats(&m0)
	if got := m0.TotalAlloc - m1.TotalAlloc; got > 64<<10 {
		t.Errorf("rejecting the largest claim its size allows allocated %d bytes; want under 64 KB", got)
	}
}

// claimFrame is a valid saved document of 11 events whose header claims
// count instead, checksum redone.
func claimFrame(t testing.TB, count uint64) []byte {
	t.Helper()
	d := NewDoc("a")
	if err := d.Insert(0, "hello world"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	// Magic, flags, CRC32-C of what follows, then the count as a uvarint.
	frame := buf.Bytes()
	old, n := binary.Uvarint(frame[9:])
	if old != 11 {
		t.Fatalf("event count in the header is %d", old)
	}
	out := append([]byte(nil), frame[:9]...)
	out = binary.AppendUvarint(out, count)
	out = append(out, frame[9+n:]...)
	binary.LittleEndian.PutUint32(out[5:9], crc32.Checksum(out[9:], crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// TestApplyMovesContentOnce: the characters of every insert live in one
// array, so a merge that let it grow by append would copy it at every
// step of its growth and leave each old copy behind as garbage — four or
// five copies of a large document's characters for one batch of a few
// thousand events. Apply reserves once for the batch it was handed: what
// the batch allocates stays a small multiple of what it adds.
func TestApplyMovesContentOnce(t *testing.T) {
	var file bytes.Buffer
	if err := latticeDoc(t, 3_000).Save(&file, SaveOptions{CacheFinalDoc: true}); err != nil {
		t.Fatal(err)
	}
	d, err := Load(bytes.NewReader(file.Bytes()), "reader")
	if err != nil {
		t.Fatal(err)
	}
	// One head, so that what follows extends the history linearly and the
	// merge builds no internal state: the history's own growth is most of
	// what the batch allocates.
	if err := d.Insert(0, "x"); err != nil {
		t.Fatal(err)
	}
	peer, err := d.Fork("peer")
	if err != nil {
		t.Fatal(err)
	}
	base := peer.Version()
	rng := rand.New(rand.NewSource(2))
	for peer.NumEvents() < d.NumEvents()+4096 {
		s := make([]byte, 100+rng.Intn(200)) // long bursts: little else to allocate
		for j := range s {
			s[j] = byte('a' + rng.Intn(26))
		}
		if err := peer.Insert(rng.Intn(peer.Len()+1), string(s)); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := peer.EventsSince(base)
	if err != nil {
		t.Fatal(err)
	}
	before := d.MemStats().LogBytes
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := d.Apply(batch); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	grew := d.MemStats().LogBytes - before
	alloc := int(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("a batch of %d events onto %d: history %d B -> +%d B, %d B allocated", len(batch), d.NumEvents()-len(batch), before, grew, alloc)
	// One array for the characters there were and the new ones (28 KB),
	// the text's new chunks, the patches, the other arrays' growth: 89 KB
	// measured, 119 KB when the rope copied its leaf on every insert. With
	// the arena growing by append it was 157 KB.
	if alloc > 135<<10 {
		t.Errorf("the batch allocated %d B; want under 135 KB", alloc)
	}
}
