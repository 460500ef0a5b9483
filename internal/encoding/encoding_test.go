package encoding

import (
	"encoding/binary"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"unicode/utf8"

	"egwalker/internal/causal"
	"egwalker/internal/colenc"
	"egwalker/internal/core"
	"egwalker/internal/oplog"
)

// The files under testdata/egw1 at the repo root were written by the EGW1
// writer before it was removed (the root package's egw1_test.go says of
// what): plain, with the cached text, compressed, pruned, and all three.
// twin.egc is the same document as EGC2, with its text.
const fixtures = "../../testdata/egw1/"

// fixture reads the EGW1 file name.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(fixtures + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// twin loads the EGC2 twin of the fixtures: their log, and its text.
func twin(t testing.TB) (*oplog.Log, string) {
	t.Helper()
	doc, err := colenc.LoadDocument(fixture(t, "twin.egc"))
	if err != nil {
		t.Fatal(err)
	}
	return doc.Log, doc.Text.String()
}

// decode decodes the fixture name.
func decode(t *testing.T, name string) *Decoded {
	t.Helper()
	dec, err := Decode(fixture(t, name))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return dec
}

// logsEqual fails the test unless a and b hold the same events, with the
// same operations, IDs and parents, except that an insert of b in skip
// may carry U+FFFD instead of its character.
func logsEqual(t *testing.T, a, b *oplog.Log, skip []causal.Span) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	full := causal.Span{Start: 0, End: causal.LV(a.Len())}
	var aOps, bOps []oplog.Op
	a.EachOp(full, func(_ causal.LV, op oplog.Op) bool { aOps = append(aOps, op); return true })
	b.EachOp(full, func(_ causal.LV, op oplog.Op) bool { bOps = append(bOps, op); return true })
	for i := range aOps {
		if len(skip) > 0 && skip[0].End <= causal.LV(i) {
			skip = skip[1:]
		}
		if len(skip) > 0 && skip[0].Contains(causal.LV(i)) && bOps[i].Content == utf8.RuneError {
			bOps[i].Content = aOps[i].Content
		}
		if aOps[i] != bOps[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, aOps[i], bOps[i])
		}
	}
	for lv := causal.LV(0); lv < causal.LV(a.Len()); lv++ {
		if a.Graph.IDOf(lv) != b.Graph.IDOf(lv) {
			t.Fatalf("event %d ID differs: %v vs %v", lv, a.Graph.IDOf(lv), b.Graph.IDOf(lv))
		}
		if pa, pb := a.Graph.ParentsOf(lv), b.Graph.ParentsOf(lv); !reflect.DeepEqual(pa, pb) {
			t.Fatalf("event %d parents differ: %v vs %v", lv, pa, pb)
		}
	}
}

// TestRoundTrip: a file the writer wrote decodes to the log it wrote,
// which replays to its text.
func TestRoundTrip(t *testing.T) {
	l, text := twin(t)
	dec := decode(t, "plain.egw")
	if dec.HasDoc || dec.Pruned != nil {
		t.Fatalf("unexpected flags: %+v", dec)
	}
	logsEqual(t, l, dec.Log, nil)
	got, err := core.ReplayText(dec.Log)
	if err != nil {
		t.Fatal(err)
	}
	if got != text {
		t.Fatalf("replay after round trip: %q vs %q", got, text)
	}
}

func TestRoundTripCachedDoc(t *testing.T) {
	l, text := twin(t)
	dec := decode(t, "cached.egw")
	if !dec.HasDoc || dec.Doc != text {
		t.Fatalf("cached doc %q (has=%v), want %q", dec.Doc, dec.HasDoc, text)
	}
	logsEqual(t, l, dec.Log, nil)
}

func TestRoundTripCompressed(t *testing.T) {
	l, _ := twin(t)
	if plain, comp := fixture(t, "plain.egw"), fixture(t, "compressed.egw"); len(comp) >= len(plain) {
		t.Errorf("compression did not shrink: %d vs %d", len(comp), len(plain))
	}
	logsEqual(t, l, decode(t, "compressed.egw").Log, nil)
}

// TestPrunedEncoding: a pruned file records the inserts it omitted — the
// ones the history deletes — which carry U+FFFD, and replays to the
// document all the same.
func TestPrunedEncoding(t *testing.T) {
	l, text := twin(t)
	deleted, err := core.Deleted(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pruned.egw", "pruned-cached-compressed.egw"} {
		dec := decode(t, name)
		if !reflect.DeepEqual(dec.Pruned, deleted) {
			t.Fatalf("%s: omitted %v; the history deletes %v", name, dec.Pruned, deleted)
		}
		logsEqual(t, l, dec.Log, deleted)
		for _, sp := range dec.Pruned {
			for lv := sp.Start; lv < sp.End; lv++ {
				if op := dec.Log.OpAt(lv); op.Kind != oplog.Insert || op.Content != utf8.RuneError {
					t.Fatalf("%s: omitted event %d is %+v", name, lv, op)
				}
			}
		}
		got, err := core.ReplayText(dec.Log)
		if err != nil {
			t.Fatal(err)
		}
		if got != text {
			t.Fatalf("%s: pruned replay %q, want %q", name, got, text)
		}
	}
}

// TestUnicodeContent: the fixtures hold characters of every UTF-8 width,
// which decode as they were written.
func TestUnicodeContent(t *testing.T) {
	l, _ := twin(t)
	widths := map[int]bool{}
	for _, c := range string(l.Content()) {
		widths[utf8.RuneLen(c)] = true
	}
	if len(widths) != 4 {
		t.Fatalf("the fixtures hold characters of %d widths", len(widths))
	}
	if got := decode(t, "plain.egw").Log.Content(); string(got) != string(l.Content()) {
		t.Fatalf("unicode round trip: %q vs %q", got, l.Content())
	}
}

func TestDecodeErrors(t *testing.T) {
	good := fixture(t, "plain.egw")
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("XXXX"), good[4:]...),
		"truncated":    good[:len(good)/2],
		"short header": good[:5],
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
	// Random corruption must never panic.
	rng := rand.New(rand.NewSource(4))
	for _, name := range []string{"plain.egw", "pruned-cached-compressed.egw"} {
		good := fixture(t, name)
		for i := 0; i < 200; i++ {
			data := append([]byte(nil), good...)
			for j := 0; j < 1+rng.Intn(4); j++ {
				data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Decode panicked on corrupt input: %v", r)
					}
				}()
				Decode(data)
			}()
		}
	}
}

// TestVarintRoundTrip: the reader reads what binary.AppendUvarint writes.
func TestVarintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, 1<<64 - 1}
	var buf []byte
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, v)
	}
	r := &reader{buf: buf}
	for _, v := range vals {
		if got := r.uvarint(); got != v {
			t.Fatalf("uvarint %d -> %d", v, got)
		}
	}
	if r.uvarint(); r.err == nil {
		t.Fatal("read past the end")
	}
}
