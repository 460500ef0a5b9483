package egwalker

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"egwalker/internal/causal"
	"egwalker/internal/colenc"
	"egwalker/internal/core"
	"egwalker/internal/oplog"
	"egwalker/internal/rope"
)

// refLoad is how Load read a columnar file before it had a loader of its
// own (colenc.LoadDocument), kept as the differential reference: the frame
// decoded into runs, every parent an ID looked up in the graph built so
// far, every run one AddRun. Load must accept exactly what it accepts and
// build the same document. The cached text is held to the same rule, from
// counts made the long way round.
func refLoad(data []byte, agent string) (*Doc, error) {
	if colenc.Sniff(data) && len(data) > 4 && data[4]&colenc.FlagPruned != 0 {
		return refLoadPruned(data, agent)
	}
	dec, err := colenc.DecodeRuns(data, math.MaxInt32)
	if err != nil {
		return nil, err
	}
	l := oplog.New()
	inserts, deletes := 0, 0
	var ps []causal.LV
	for _, r := range dec.Runs {
		ps = ps[:0]
		for _, p := range r.Parents {
			lv, ok := l.Graph.LVOf(causal.RawID(p))
			if !ok {
				return nil, fmt.Errorf("event %s/%d references unknown parent %s/%d", r.ID.Agent, r.ID.Seq, p.Agent, p.Seq)
			}
			ps = append(ps, lv)
		}
		if _, err := l.AddRun(r.ID.Agent, r.ID.Seq, ps, r.Run); err != nil {
			return nil, err
		}
		if r.Kind == oplog.Insert {
			inserts += r.Len
		} else {
			deletes += r.Len
		}
	}
	d := &Doc{log: l, agent: agent}
	if !dec.HasDoc {
		if d.text, err = core.ReplayRope(l); err != nil {
			return nil, err
		}
		return d, nil
	}
	if n := utf8.RuneCountInString(dec.Doc); !utf8.ValidString(dec.Doc) || n > inserts || n < inserts-deletes {
		return nil, fmt.Errorf("cached text of %d characters, valid %v, for %d inserts and %d deletes", n, utf8.ValidString(dec.Doc), inserts, deletes)
	}
	d.text = rope.NewFromString(dec.Doc)
	return d, nil
}

// refLoadPruned is refLoad of a pruned frame: its content column read the
// long way round — the ops column's inserts counted, the stretches read
// and the kept characters decoded into runes, a placeholder for each
// dropped one — and written back unpruned, the frame then loaded as an
// unpruned one would be, and the dropped characters found among its
// inserts.
func refLoadPruned(data []byte, agent string) (*Doc, error) {
	if len(data) < 9 {
		return nil, io.ErrUnexpectedEOF
	}
	n, k := binary.Uvarint(data[9:])
	if k <= 0 {
		return nil, fmt.Errorf("no event count")
	}
	var dropped []int // character indexes
	var unpruneErr error
	fail := func(err error) {
		if unpruneErr == nil {
			unpruneErr = err
		}
	}
	unpruned, err := reframe(data, func(cols [][]byte) {
		if len(cols) < 4 {
			fail(fmt.Errorf("%d columns", len(cols)))
			return
		}
		inserts := 0
		for ops, events := cols[1], uint64(0); events < n; {
			var run [3]uint64
			for i := range run {
				v, k := binary.Uvarint(ops)
				if k <= 0 {
					fail(fmt.Errorf("the ops column is cut short"))
					return
				}
				run[i], ops = v, ops[k:]
			}
			if run[1] == 0 || run[1] > n-events {
				fail(fmt.Errorf("an op run of %d", run[1]))
				return
			}
			if run[0] == 0 {
				inserts += int(run[1])
			}
			events += run[1]
		}
		col := cols[3]
		if data[4]&colenc.FlagCompressed != 0 {
			raw, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(col)), 16<<20))
			if err != nil || len(raw) >= 16<<20 {
				fail(fmt.Errorf("inflate: %v", err))
				return
			}
			col = raw
		}
		var runes []rune
		var stretches []int
		for at := 0; at < inserts; {
			v, k := binary.Uvarint(col)
			if k <= 0 || v > uint64(inserts-at) || v == 0 && len(stretches) > 0 {
				fail(fmt.Errorf("stretch %d of %d at %d", len(stretches), v, at))
				return
			}
			stretches, col, at = append(stretches, int(v)), col[k:], at+int(v)
		}
		if !utf8.Valid(col) {
			fail(fmt.Errorf("kept characters of invalid UTF-8"))
			return
		}
		kept := []rune(string(col))
		for i, m := range stretches {
			if i%2 == 0 {
				if m > len(kept) {
					fail(fmt.Errorf("%d kept characters short", m-len(kept)))
					return
				}
				runes, kept = append(runes, kept[:m]...), kept[m:]
				continue
			}
			for range m {
				dropped = append(dropped, len(runes))
				runes = append(runes, utf8.RuneError)
			}
		}
		if len(kept) > 0 {
			fail(fmt.Errorf("%d kept characters over", len(kept)))
		}
		cols[3] = []byte(string(runes))
	})
	if err == nil {
		err = unpruneErr
	}
	if err != nil {
		return nil, err
	}
	unpruned[4] &^= colenc.FlagPruned | colenc.FlagCompressed
	d, err := refLoad(unpruned, agent)
	if err != nil || len(dropped) == 0 {
		return d, err
	}
	i := 0 // character index of the next insert
	d.log.EachOp(causal.Span{End: causal.LV(d.log.Len())}, func(lv causal.LV, op oplog.Op) bool {
		if op.Kind != oplog.Insert {
			return true
		}
		if len(dropped) > 0 && dropped[0] == i {
			if k := len(d.pruned); k > 0 && d.pruned[k-1].End == lv {
				d.pruned[k-1].End++
			} else {
				d.pruned = append(d.pruned, causal.Span{Start: lv, End: lv + 1})
			}
			dropped = dropped[1:]
		}
		i++
		return true
	})
	d.held = causal.LV(d.log.Len())
	return d, nil
}

// reframed returns the columnar frame with edit applied to its columns
// (agents, ops, parents, content and, if the frame has one, doc) and the
// lengths and checksum redone.
func reframed(t testing.TB, frame []byte, edit func(cols [][]byte)) []byte {
	t.Helper()
	out, err := reframe(frame, edit)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// reframe is reframed, with an error for a frame it cannot take apart.
func reframe(frame []byte, edit func(cols [][]byte)) ([]byte, error) {
	_, k := binary.Uvarint(frame[9:])
	head, body := frame[:9+k], frame[9+k:]
	var cols [][]byte
	for len(body) > 0 {
		ln, k := binary.Uvarint(body)
		if k <= 0 || int(ln) > len(body)-k {
			return nil, fmt.Errorf("reframe: column %d of the frame is cut short", len(cols))
		}
		cols = append(cols, bytes.Clone(body[k:k+int(ln)]))
		body = body[k+int(ln):]
	}
	edit(cols)
	out := bytes.Clone(head)
	for _, col := range cols {
		out = binary.AppendUvarint(out, uint64(len(col)))
		out = append(out, col...)
	}
	binary.LittleEndian.PutUint32(out[5:9], crc32.Checksum(out[9:], crc32.MakeTable(crc32.Castagnoli)))
	return out, nil
}

// shortLen is a reader that reports holding less than it does.
type shortLen struct{ *bytes.Reader }

func (r shortLen) Len() int { return r.Reader.Len() / 2 }

// TestLoadReadsPastLen: Load reads a reader that reports its length into
// a buffer of that size, and reads on when the reader holds more.
func TestLoadReadsPastLen(t *testing.T) {
	d := NewDoc("a")
	if err := d.Insert(0, "hello, world"); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := d.Save(&file, SaveOptions{CacheFinalDoc: true}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []io.Reader{bytes.NewReader(file.Bytes()), shortLen{bytes.NewReader(file.Bytes())}} {
		got, err := Load(r, "b")
		if err != nil || got.Text() != d.Text() || got.NumEvents() != d.NumEvents() {
			t.Fatalf("Load from a %T: %v, text %q", r, err, got.Text())
		}
	}
}

// TestLoadRejectsBadCachedText: the cached text is checked like every
// other column. Load used to hand it to the rope as it came: invalid UTF-8
// read back as U+FFFD where the characters were, and a text of any length
// was the document whatever the history said.
func TestLoadRejectsBadCachedText(t *testing.T) {
	d := NewDoc("a")
	if err := d.Insert(0, "hello!"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(5, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf, SaveOptions{CacheFinalDoc: true}); err != nil {
		t.Fatal(err)
	}
	withText := func(text string) []byte {
		return reframed(t, buf.Bytes(), func(cols [][]byte) {
			if len(cols) != 5 || string(cols[4]) != "hello" {
				t.Fatalf("the frame has %d columns, the last %q", len(cols), cols[len(cols)-1])
			}
			cols[4] = []byte(text)
		})
	}
	// Six inserts and a delete: five characters, or six if the delete was
	// of a character some concurrent delete removed too.
	for _, text := range []string{"hello", "hello!", "héllo"} {
		got, err := Load(bytes.NewReader(withText(text)), "r")
		if err != nil {
			t.Fatalf("cached text %q: %v", text, err)
		}
		if got.Text() != text {
			t.Fatalf("cached text %q loaded as %q", text, got.Text())
		}
	}
	for _, text := range []string{"\xff\xfello", "hell", "", "hello!!", "hello world"} {
		if got, err := Load(bytes.NewReader(withText(text)), "r"); err == nil {
			t.Errorf("cached text %q for a history of six inserts and a delete loaded, as %q", text, got.Text())
		}
	}
	// The legacy format ends in its cached text and has no checksum; its
	// reader checks the text for UTF-8 too (not for length).
	legacy, err := os.ReadFile("testdata/egw1/cached.egw")
	if err != nil {
		t.Fatal(err)
	}
	text := egw1Text(t)
	file, ok := bytes.CutSuffix(legacy, []byte(text))
	if !ok || text[len(text)-1] >= utf8.RuneSelf {
		t.Fatalf("the legacy file does not end in its text, ASCII last: %q", legacy[max(len(legacy)-20, 0):])
	}
	cut, other := text[:len(text)-1]+"\xc3", text[:len(text)-1]+"\x00"
	if got, err := Load(bytes.NewReader(append(bytes.Clone(file), cut...)), "r"); err == nil {
		t.Errorf("a legacy file with a cached text cut inside a character loaded, as %q", got.Text())
	}
	if got, err := Load(bytes.NewReader(append(bytes.Clone(file), other...)), "r"); err != nil || got.Text() != other {
		t.Errorf("a legacy file with another cached text: %v, %v", got, err)
	}
}

// loadSeeds are whole-document files — sound, odd and broken — that Load
// and refLoad must agree on: FuzzLoad starts from them.
func loadSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	golden, err := filepath.Glob("testdata/colenc/*")
	if err != nil || len(golden) == 0 {
		t.Fatalf("golden files: %v, %v", golden, err)
	}
	for _, name := range golden {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	seeds = append(seeds, claimFrame(t, 1<<31), claimFrame(t, 90<<16))

	var lattice bytes.Buffer
	if err := latticeDoc(t, 300).Save(&lattice, SaveOptions{CacheFinalDoc: true}); err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, lattice.Bytes())

	id := func(agent string, seq int) colenc.ID { return colenc.ID{Agent: agent, Seq: seq} }
	encode := func(doc *string, batches ...[]colenc.Event) {
		var evs []colenc.Event
		for _, b := range batches {
			evs = append(evs, b...)
		}
		var data []byte
		var err error
		if doc != nil {
			data, err = colenc.EncodeRunsDoc(colenc.Runs(evs), *doc, colenc.Options{})
		} else {
			data, err = colenc.Encode(evs, colenc.Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	// Three roots, an agent whose later sequence numbers come first, and a
	// merge of them all 70 and more events on: two of its parents are past
	// the back-reference window and written as (agent, seq).
	odd := [][]colenc.Event{
		typedBy("a", 10, 5), typedBy("a", 0, 5), typedBy("b", 0, 3),
		typedBy("c", 0, 70, id("b", 2)),
		typedBy("d", 0, 4, id("a", 14), id("a", 4), id("c", 69)),
	}
	encode(nil, odd...)
	text := "abcd" + string(bytes.Repeat([]byte("x"), 83))
	encode(&text, odd...)
	// An event named twice; a parent that comes later in the file; a
	// parent that is not in it; a name that is only ever a parent's.
	encode(nil, typedBy("a", 0, 3), typedBy("b", 0, 2, id("a", 2)), typedBy("a", 1, 1, id("b", 1)))
	encode(nil, typedBy("a", 0, 2), typedBy("b", 0, 1, id("a", 2)), typedBy("a", 2, 1, id("a", 1)))
	encode(nil, typedBy("a", 0, 2), typedBy("b", 0, 1, id("a", 7)))
	encode(nil, typedBy("a", 0, 2), typedBy("b", 0, 1, id("z", 0)))
	for _, seed := range twiceNamedSeeds(t) {
		seeds = append(seeds, seed.data)
	}
	seeds = append(seeds, prunedSeeds(t)...)
	for _, seed := range hostileGraphSeeds(t) {
		seeds = append(seeds, seed.data)
	}
	// Two inserts and a delete: texts the history can end in, and cannot.
	del := colenc.Event{ID: id("a", 2), Parents: []colenc.ID{id("a", 1)}, Pos: 0}
	for _, text := range []string{"", "b", "ab", "abc", "a\xffb"} {
		encode(&text, typedBy("a", 0, 2), []colenc.Event{del})
	}
	return seeds
}

// prunedSeeds are pruned files: sound — plain, with the cached text,
// compressed, and the EGW1 fixtures' history — and broken: cut short, a
// byte of the stretches flipped, a stretch that overruns the inserts, a
// kept character short.
func prunedSeeds(t testing.TB) [][]byte {
	t.Helper()
	d := NewDoc("a")
	if err := d.Insert(0, "héllo wörld"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(8, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(6, "!"); err != nil {
		t.Fatal(err)
	}
	save := func(d *Doc, opts SaveOptions) []byte {
		var buf bytes.Buffer
		if err := d.Save(&buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := save(d, SaveOptions{OmitDeletedContent: true})
	seeds := [][]byte{
		plain,
		save(d, SaveOptions{OmitDeletedContent: true, CacheFinalDoc: true}),
		save(d, SaveOptions{OmitDeletedContent: true, Compress: true}),
		save(egw1Twin(t), SaveOptions{OmitDeletedContent: true, CacheFinalDoc: true}),
		plain[:len(plain)-3],
	}
	// The content column: stretches 0, 2, 6, 3, 1, then "llo wö!".
	for _, edit := range []func(col []byte) []byte{
		func(col []byte) []byte { col[1] ^= 0x04; return col },
		func(col []byte) []byte { col[3]++; return col },
		func(col []byte) []byte { return col[:len(col)-1] },
	} {
		seeds = append(seeds, reframed(t, plain, func(cols [][]byte) {
			if string(cols[3]) != "\x00\x02\x06\x03\x01llo wö!" {
				t.Fatalf("the pruned content column is %q", cols[3])
			}
			cols[3] = edit(cols[3])
		}))
	}
	return seeds
}

// hostileGraphSeeds are frames whose agents or parents column is broken
// where a count that reads a parent reference only as far as its length
// could take it for sound: each must be refused by the walk that fills
// the graph, if not by the count. They are edits of one sound frame: "abc"
// by a, then two characters by b on top of a's first.
func hostileGraphSeeds(t testing.TB) []struct {
	what string
	data []byte
} {
	t.Helper()
	data, err := colenc.Encode(append(typedBy("a", 0, 3), typedBy("b", 0, 2, colenc.ID{Agent: "a", Seq: 0})...), colenc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The agents column: names a and b, then the runs (0, 0, 3) and
	// (1, 0, 2). The parents column: two entries, event 0's with no parent
	// and event 3's with one, a back-reference of 3 (written doubled).
	const agents, parents = "\x02\x01a\x01b\x02\x00\x00\x03\x01\x00\x02", "\x02\x00\x00\x03\x01\x06"
	with := func(col int, bytes string) []byte {
		return reframed(t, data, func(cols [][]byte) {
			if string(cols[0]) != agents || string(cols[2]) != parents {
				t.Fatalf("the frame's agents column is % x, its parents column % x", cols[0], cols[2])
			}
			cols[col] = []byte(bytes)
		})
	}
	tooMany := "\x02\x00\x00\x03\x81\x08" + strings.Repeat("\x02", 1025) // 1025 back-references of 1
	return []struct {
		what string
		data []byte
	}{
		{"an (agent, seq) reference cut off before its seq", with(2, "\x02\x00\x00\x03\x01\x01")},
		{"a parents entry at event n", with(2, "\x02\x00\x00\x05\x01\x06")},
		{"a parents entry past event n", with(2, "\x02\x00\x00\x09\x01\x06")},
		{"a zero-length agent run", with(0, "\x02\x01a\x01b\x03\x00\x00\x03\x01\x00\x00\x01\x00\x02")},
		{"a parent count past maxParents", with(2, tooMany)},
		{"a back-reference of 0", with(2, "\x02\x00\x00\x03\x01\x00")},
	}
}

// TestLoadRefusesHostileGraphColumns: each hostile graph frame fails to
// load, as it fails the reference, and fails cheaply: within
// TestLoadHugeClaim's bound.
func TestLoadRefusesHostileGraphColumns(t *testing.T) {
	for _, seed := range hostileGraphSeeds(t) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := Load(bytes.NewReader(seed.data), "r")
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("%s: loaded", seed.what)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: refusing it allocated %d bytes; want under 64 KB", seed.what, got)
		}
		if _, refErr := refLoad(seed.data, "r"); refErr == nil {
			t.Errorf("%s: the reference loads it", seed.what)
		}
		t.Logf("%s: %v", seed.what, err)
	}
}

// TestLoadSearchesForNoBackReference: a back-reference names an event a
// few dozen at most before the one whose parent it is, so Load finds it
// among the newest entries of the graph it is filling. Searching for each
// made 3 042 graph searches for the lattice's 2 055 entries.
func TestLoadSearchesForNoBackReference(t *testing.T) {
	var file bytes.Buffer
	if err := latticeDoc(t, 20_000).Save(&file, SaveOptions{CacheFinalDoc: true}); err != nil {
		t.Fatal(err)
	}
	d, err := Load(bytes.NewReader(file.Bytes()), "r")
	if err != nil {
		t.Fatal(err)
	}
	entries, searches := d.MemStats().GraphEntries, d.log.Graph.Searches()
	t.Logf("a load of %d events in %d graph entries made %d graph searches", d.NumEvents(), entries, searches)
	if searches > uint64(entries/100) {
		t.Errorf("a load of %d graph entries made %d graph searches; want at most %d", entries, searches, entries/100)
	}
}

// typedBy is n characters typed by agent from seq on at the front of the
// text, the first on top of parents.
func typedBy(agent string, seq, n int, parents ...colenc.ID) []colenc.Event {
	evs := make([]colenc.Event, n)
	for k := range evs {
		evs[k] = colenc.Event{ID: colenc.ID{Agent: agent, Seq: seq + k}, Parents: parents, Insert: true, Pos: k, Content: rune('a' + k%26)}
		parents = []colenc.ID{evs[k].ID}
	}
	return evs
}

// twiceNamedSeeds are files whose name table holds the name "a" twice —
// written with a second agent "b", then renamed in the table. Both indexes
// are the one agent: the reference, which resolves every name as a string,
// has always read them so.
func twiceNamedSeeds(t testing.TB) []struct {
	what  string
	data  []byte
	loads bool
} {
	t.Helper()
	id := func(agent string, seq int) colenc.ID { return colenc.ID{Agent: agent, Seq: seq} }
	twice := func(batches ...[]colenc.Event) []byte {
		var evs []colenc.Event
		for _, b := range batches {
			evs = append(evs, b...)
		}
		data, err := colenc.Encode(evs, colenc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return reframed(t, data, func(cols [][]byte) {
			// The name table: a count, then each name behind its length.
			names, renamed := cols[0], 0
			for i, at := 0, 1; i < int(names[0]); i, at = i+1, at+1+int(names[at]) {
				if names[at] == 1 && names[at+1] == 'b' {
					names[at+1] = 'a'
					renamed++
				}
			}
			if renamed != 1 {
				t.Fatalf("renamed %d names of the table % x", renamed, names)
			}
		})
	}
	return []struct {
		what  string
		data  []byte
		loads bool
	}{
		{"both indexes own events", twice(typedBy("a", 0, 1), typedBy("b", 1, 1, id("a", 0))), true},
		{"both own events, and an (agent, seq) parent goes through the second",
			twice(typedBy("a", 0, 3), typedBy("b", 10, 70, id("a", 2)), typedBy("c", 0, 1, id("b", 10), id("b", 79))), true},
		{"the second index is only ever a parent's", twice(typedBy("a", 0, 2), typedBy("c", 0, 1, id("b", 0))), true},
		{"the second index names events of the first again", twice(typedBy("a", 0, 3), typedBy("b", 2, 2, id("a", 2))), false},
		{"a parent through the second index that no event is", twice(typedBy("a", 0, 2), typedBy("c", 0, 1, id("b", 5))), false},
	}
}

// TestLoadAgentNamedTwice: a name table may hold a name twice, and the
// graph knows agents by name. Load numbered agents by table index on its
// own and the graph by name: two indexes with events under one name ran
// off the end of the graph's per-agent index, and a parent written through
// an index without events of its own was not found.
func TestLoadAgentNamedTwice(t *testing.T) {
	for _, seed := range twiceNamedSeeds(t) {
		got, err := Load(bytes.NewReader(seed.data), "r")
		want, refErr := refLoad(seed.data, "r")
		if (err == nil) != seed.loads || (refErr == nil) != seed.loads {
			t.Errorf("%s: Load: %v; reference: %v; loads: %v", seed.what, err, refErr, seed.loads)
			continue
		}
		if seed.loads {
			sameLoaded(t, got, want)
		}
	}
}

// sameLoaded fails the test unless Load's document and the reference's are
// the same document in the same arrays.
func sameLoaded(t *testing.T, got, want *Doc) {
	t.Helper()
	g, w := got.MemStats(), want.MemStats()
	if g.Events != w.Events || g.OpSpans != w.OpSpans || g.GraphEntries != w.GraphEntries {
		t.Fatalf("Load: %d events in %d spans and %d entries; reference: %d in %d and %d", g.Events, g.OpSpans, g.GraphEntries, w.Events, w.OpSpans, w.GraphEntries)
	}
	if got.Text() != want.Text() {
		t.Fatalf("Load: text %q; reference: %q", got.Text(), want.Text())
	}
	if !reflect.DeepEqual(got.Version(), want.Version()) {
		t.Fatalf("Load: version %v; reference: %v", got.Version(), want.Version())
	}
	if !reflect.DeepEqual(got.log.Graph.Agents(), want.log.Graph.Agents()) {
		t.Fatalf("Load numbers the agents %v; reference: %v", got.log.Graph.Agents(), want.log.Graph.Agents())
	}
	if !reflect.DeepEqual(got.pruned, want.pruned) || got.held != want.held {
		t.Fatalf("Load: pruned %v of %d events; reference: %v of %d", got.pruned, got.held, want.pruned, want.held)
	}
	// A pruned document saves only pruned, which replays its history: that
	// may fail where the cached text spared Load a replay, and must fail
	// alike.
	opts := SaveOptions{CacheFinalDoc: true, OmitDeletedContent: len(got.pruned) > 0}
	var gb, wb bytes.Buffer
	gerr, werr := got.Save(&gb, opts), want.Save(&wb, opts)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || opts == (SaveOptions{CacheFinalDoc: true}) && gerr != nil {
		t.Fatalf("Load's document saves with %v; the reference's with %v", gerr, werr)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("Load's document saves as %x; the reference's as %x", gb.Bytes(), wb.Bytes())
	}
	// A few bytes can describe a run of 2^31 deletes: one Event each is
	// for histories of a size the input could have spelled out.
	if g.Events <= 1<<16 {
		if ge, we := got.Events(), want.Events(); !reflect.DeepEqual(ge, we) {
			t.Fatalf("Load: events %v; reference: %v", ge, we)
		}
	}
}

// FuzzLoad feeds Load arbitrary bytes. A columnar file must load or fail
// as the reference says, into the same document; anything else must only
// not panic.
func FuzzLoad(f *testing.F) {
	for _, seed := range loadSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// As it came, for not panicking; then, since a checksum that holds is
		// one mutation in 2^32, with the checksum made to hold, so that the
		// columns are read.
		Load(bytes.NewReader(data), "fuzz")
		if !colenc.Sniff(data) || len(data) < 9 {
			return
		}
		data = bytes.Clone(data)
		binary.LittleEndian.PutUint32(data[5:9], crc32.Checksum(data[9:], crc32.MakeTable(crc32.Castagnoli)))
		got, err := Load(bytes.NewReader(data), "fuzz")
		want, refErr := refLoad(data, "fuzz")
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Load: %v; reference: %v", err, refErr)
		}
		if err == nil {
			sameLoaded(t, got, want)
		}
	})
}

// TestLoadSeedsCoverBothOutcomes: the seeds FuzzLoad starts from are of
// both kinds, and the sound ones include what they were written to hold.
func TestLoadSeedsCoverBothOutcomes(t *testing.T) {
	loaded, refused, external := 0, 0, 0
	for _, seed := range loadSeeds(t) {
		if _, err := Load(bytes.NewReader(seed), "r"); err != nil {
			refused++
			continue
		}
		loaded++
		if info, err := colenc.Inspect(seed); err == nil && len(info.ExternalParents) > 0 {
			external++
		}
	}
	if loaded < 8 || refused < 8 || external < 2 {
		t.Fatalf("%d seeds load (%d with (agent, seq) parents), %d are refused", loaded, external, refused)
	}
}
