package egwalker

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
	"unicode/utf8"
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
	// Nine or ten events to a span and to an entry: 24 bytes of each, one
	// per ASCII character inserted, twelve per stored parent, four per
	// entry in its agent's index, and what the allocator's size classes
	// round each array up by: 9.68 B/event. The pointerful layout this
	// replaced held 24.3 B/event, and a character held as a rune 12.32.
	if per > 10.6 {
		t.Errorf("lattice: %.2f B/event of history; budget 10.6", per)
	}
	// What MemStats adds up is what the heap holds: the arrays are all
	// there is to the history, and Load leaves no slack in them.
	if sum := ms.LogBytes + ms.TextBytes; sum < heap*90/100 || sum > heap*110/100 {
		t.Errorf("lattice: MemStats adds up to %d B (history %d, text %d), the heap retains %d B: more than a tenth apart", sum, ms.LogBytes, ms.TextBytes, heap)
	}
	runtime.KeepAlive(d)
	runtime.KeepAlive(d2)
}

// TestTextBytesPerCharacter: a document holds its characters as UTF-8, in
// the log's arena and in the rope's leaves alike, so an ASCII document
// holds about a byte per character in each and a CJK one about three,
// where runes held four in both (4.56 B in the leaves of a loaded
// document). Measured on 100 000 characters typed in bursts at a moving
// cursor, where appends leave slack in the arena and typing headroom in
// the leaves, and on the same document loaded: the arena's bytes, rounded
// up to the allocator's pages, and its marks (4 B every 64 characters);
// the leaves' bytes and nodes (72 B a leaf of up to 512 bytes).
func TestTextBytesPerCharacter(t *testing.T) {
	for _, c := range []struct {
		name     string
		alphabet []rune
		width    float64    // bytes of UTF-8 per character
		budget   [4]float64 // B/character: arena and text typed, arena and text loaded
	}{
		{"ASCII", []rune("the quick brown fox jumps over the lazy dog"), 1, [4]float64{1.55, 1.45, 1.25, 1.25}},
		{"CJK", []rune("漢字語文書日本中国"), 3, [4]float64{3.9, 4.2, 3.3, 3.6}},
	} {
		rng := rand.New(rand.NewSource(7))
		d := NewDoc("typist")
		cursor, typed := 0, 0
		for d.NumEvents() < 100_000 {
			if rng.Intn(20) == 0 {
				cursor = rng.Intn(d.Len() + 1)
			}
			rs := make([]rune, 1+rng.Intn(12))
			for i := range rs {
				rs[i] = c.alphabet[(typed+i)%len(c.alphabet)]
			}
			typed += len(rs)
			if err := d.Insert(cursor, string(rs)); err != nil {
				t.Fatal(err)
			}
			cursor += len(rs)
		}
		var file bytes.Buffer
		if err := d.Save(&file, SaveOptions{CacheFinalDoc: true}); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&file, "reader")
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range []struct {
			how         string
			d           *Doc
			arena, text float64
		}{{"typed", d, c.budget[0], c.budget[1]}, {"loaded", loaded, c.budget[2], c.budget[3]}} {
			ms := doc.d.MemStats()
			arena := float64(ms.ContentBytes) / float64(ms.Events)
			text := float64(ms.TextBytes) / float64(doc.d.Len())
			t.Logf("%s, %s: %d characters; arena %.2f B each, text %.2f B each", c.name, doc.how, doc.d.Len(), arena, text)
			if arena < c.width || arena > doc.arena || text < c.width || text > doc.text {
				t.Errorf("%s, %s: arena %.2f and text %.2f B per character; want %.0f to %.2f and %.0f to %.2f",
					c.name, doc.how, arena, text, c.width, doc.arena, c.width, doc.text)
			}
		}
	}
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
	// Two parents to an entry at most here, twelve bytes each with the
	// link; the agent table is small change.
	need := 24*l.OpSpans + len(loaded.log.Content()) + (24+4)*l.GraphEntries
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
// memory (one buffer of the size the reader reports) and the loader's own
// few hundred bytes: 1.34 times what stays, measured, what stays a third
// smaller since characters are UTF-8 (1.22 when they were runes); 1.28
// when the text was copied into a string on its way to the rope. With io.ReadAll's
// doubling buffer and the text converted to one []rune and chopped into
// leaves, it was 2.40 times; through a slice of run structs with an ID per
// parent, a log sized by a pass over them and a second copy of the
// characters, 6.42 times.
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

// TestSaveAllocatesWhatItWrites: Save allocates the frame once, at the
// file's exact size, and writes the characters and the text straight into
// it; the columns it writes before it can size the frame go to a pooled
// writer's buffers, which the save before has grown. So what it allocates
// into a buffer that has room is the file and a few hundred bytes: 1.04
// times it, measured. Through a run struct with agent strings per run,
// columns grown by append and the text copied three times, it was 9.1
// times (7.6 with the text).
func TestSaveAllocatesWhatItWrites(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops what it is handed")
	}
	d := latticeDoc(t, 6_000)
	for _, opts := range []SaveOptions{{}, {CacheFinalDoc: true}} {
		var file bytes.Buffer
		if err := d.Save(&file, opts); err != nil {
			t.Fatal(err)
		}
		size := file.Len()
		file.Reset()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := d.Save(&file, opts)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		alloc := int(m1.TotalAlloc - m0.TotalAlloc)
		t.Logf("%+v: a file of %d B, %d events: Save allocated %d B, %.2f times", opts, size, d.NumEvents(), alloc, float64(alloc)/float64(size))
		if 100*alloc > 150*size {
			t.Errorf("%+v: Save allocated %d B, %.2f times the %d B it wrote; want at most 1.5 times", opts, alloc, float64(alloc)/float64(size), size)
		}
	}
}

// TestRopeBytesAfterEditing: a document typed into and never reloaded
// holds its ASCII text in about 1.3 bytes a character. A leaf that grows
// keeps headroom for the typing that goes on in it, so the deletes must
// give memory back: a leaf far below its capacity merges into a neighbour
// or shrinks. One author types 50 000 events — bursts of 1–20 characters
// at the cursor, the cursor jumping in one burst of 33 — with backspace
// bursts of 1–10 making up none, 30 % or 55 % of them. The budget is 5 %
// over what is measured: 1.29 / 1.33 / 1.36 B. Leaves of runes held 5.18 /
// 5.27 / 5.44, and 5.09 / 5.10 / 5.46 when every insert copied its leaf.
func TestRopeBytesAfterEditing(t *testing.T) {
	for _, c := range []struct {
		backspaces int     // percent of bursts
		measured   float64 // B/character
	}{{0, 1.29}, {30, 1.33}, {55, 1.36}} {
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
		t.Logf("%d %% backspaces: %d characters, %.2f B each", c.backspaces, d.Len(), per)
		if per > c.measured*1.05 {
			t.Errorf("%d %% backspaces: %.2f B per character; want at most %.2f, 5 %% over %.2f", c.backspaces, per, c.measured*1.05, c.measured)
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

// allocsPerMerge returns the objects one call of merge allocates, each
// call into a replica of its own that fresh made beforehand. The first
// replica, merged into during the warm-up call, is returned for its state.
func allocsPerMerge(t *testing.T, fresh func() *Doc, merge func(d *Doc) error) (float64, *Doc) {
	t.Helper()
	const runs = 10
	docs := make([]*Doc, runs+1)
	for i := range docs {
		docs[i] = fresh()
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := merge(docs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	return allocs, docs[0]
}

// TestApplyPatchAllocs: the text one Apply inserts is one string, every
// insert patch's Content a substring of it, and on the linear path the
// patches are one slice of their exact length — so what building the
// patches allocates, counted as what Apply allocates past the same merge
// with no sink (Merge's), does not grow with how many patches there are.
// When each patch's Content was a string of its own and the slice grew by
// append, the 1 000-run batch allocated over a thousand objects more than
// the 10-run one. A character that is not a valid rune comes out as
// string([]rune) writes it, U+FFFD, and takes no more objects.
func TestApplyPatchAllocs(t *testing.T) {
	var perBatch []float64
	for _, runs := range []int{10, 1000} {
		src := NewDoc("src")
		for range runs {
			// Each word goes in before the last one: a run of its own.
			if err := src.Insert(0, "wörd "); err != nil {
				t.Fatal(err)
			}
		}
		evs := src.Events()
		fresh := func() *Doc { return NewDoc("dst") }
		var patches []Patch
		apply, got := allocsPerMerge(t, fresh, func(d *Doc) (err error) {
			patches, err = d.Apply(evs)
			return err
		})
		merge, _ := allocsPerMerge(t, fresh, func(d *Doc) error {
			_, err := d.merge(evs, false)
			return err
		})
		if len(patches) != runs || got.Text() != src.Text() {
			t.Fatalf("%d runs: %d patches, text %q", runs, len(patches), got.Text())
		}
		t.Logf("%d insert runs: Apply %.0f objects, with no sink %.0f: the patches %.0f", runs, apply, merge, apply-merge)
		perBatch = append(perBatch, apply-merge)
	}
	if perBatch[0] != perBatch[1] {
		t.Errorf("the patches of 10 runs took %.0f objects, of 1 000 runs %.0f; want the same", perBatch[0], perBatch[1])
	}

	chars := []rune{'a', -1, 0xD800, 'é', utf8.MaxRune + 1, '漢'}
	want := string(chars)
	run := make([]Event, len(chars))
	for i, c := range chars {
		run[i] = Event{ID: EventID{Agent: "x", Seq: i}, Insert: true, Pos: i, Content: c}
		if i > 0 {
			run[i].Parents = []EventID{{Agent: "x", Seq: i - 1}}
		}
	}
	for _, local := range []string{"", "concurrent "} { // the linear path, the transforming one
		fresh := func() *Doc {
			d := NewDoc("dst")
			if err := d.Insert(0, local); err != nil {
				t.Fatal(err)
			}
			return d
		}
		var patches []Patch
		apply, _ := allocsPerMerge(t, fresh, func(d *Doc) (err error) {
			patches, err = d.Apply(run)
			return err
		})
		merge, _ := allocsPerMerge(t, fresh, func(d *Doc) error {
			_, err := d.merge(run, false)
			return err
		})
		if len(patches) != 1 || patches[0].Content != want || patches[0].N != len(chars) {
			t.Errorf("local text %q: patches %+v; want one insert of %q", local, patches, want)
		}
		// The string is sized for U+FFFD where a rune is invalid: room
		// for fewer bytes would grow it a second time.
		t.Logf("local text %q: the patches of a run with invalid runes %.0f objects", local, apply-merge)
		if apply-merge != 2 {
			t.Errorf("local text %q: the patches of a run with invalid runes took %.0f objects; want 2", local, apply-merge)
		}
	}
}

// TestMergeBuildsNoPatches: Merge throws its patches away, so it builds
// none. It merges what Apply of the same events merges — same text, log
// and version — with fewer objects, on a linear history and on one that
// must be transformed.
func TestMergeBuildsNoPatches(t *testing.T) {
	base := latticeDoc(t, 1_000)
	for _, concurrent := range []bool{false, true} {
		src, err := base.Fork("src")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for range 200 {
			if err := src.Insert(rng.Intn(src.Len()+1), "typed "); err != nil {
				t.Fatal(err)
			}
			if src.Len() > 10 && rng.Intn(3) == 0 {
				if err := src.Delete(rng.Intn(src.Len()-3), 3); err != nil {
					t.Fatal(err)
				}
			}
		}
		fresh := func() *Doc {
			d, err := base.Fork("dst")
			if err != nil {
				t.Fatal(err)
			}
			if concurrent {
				if err := d.Insert(d.Len()/2, "offline"); err != nil {
					t.Fatal(err)
				}
			}
			return d
		}
		merge, merged := allocsPerMerge(t, fresh, func(d *Doc) error { return d.Merge(src) })
		// Merge as it was: the events it asks for, through Apply.
		apply, applied := allocsPerMerge(t, fresh, func(d *Doc) error {
			evs, err := src.EventsSince(d.Version())
			if err != nil {
				evs, err = src.EventsSinceSummary(d.Summary())
			}
			if err == nil {
				_, err = d.Apply(evs)
			}
			return err
		})
		t.Logf("concurrent %v: Merge %.0f objects, Apply %.0f", concurrent, merge, apply)
		if merge >= apply {
			t.Errorf("concurrent %v: Merge allocated %.0f objects, Apply %.0f; want fewer", concurrent, merge, apply)
		}
		if merged.Text() != applied.Text() || !reflect.DeepEqual(merged.Version(), applied.Version()) ||
			!reflect.DeepEqual(merged.Events(), applied.Events()) {
			t.Errorf("concurrent %v: Merge and Apply left different documents", concurrent)
		}
	}
}
