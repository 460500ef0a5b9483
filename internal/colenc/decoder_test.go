package colenc

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// sameRuns compares two decodes, nil and empty slices alike.
func sameRuns(a, b DecodedRuns) bool {
	if a.NumEvents != b.NumEvents || a.HasDoc != b.HasDoc || a.Doc != b.Doc || len(a.Runs) != len(b.Runs) {
		return false
	}
	for i := range a.Runs {
		x, y := a.Runs[i], b.Runs[i]
		if x.ID != y.ID || x.Kind != y.Kind || x.Pos != y.Pos || x.Dir != y.Dir || x.Len != y.Len ||
			string(x.Content) != string(y.Content) || len(x.Parents) != len(y.Parents) {
			return false
		}
		for j := range x.Parents {
			if x.Parents[j] != y.Parents[j] {
				return false
			}
		}
	}
	return true
}

// sameInfo compares two inspections, nil and empty slices alike.
func sameInfo(a, b *BlockInfo) bool {
	return a.NumEvents == b.NumEvents && a.HasDoc == b.HasDoc &&
		reflect.DeepEqual(append([]IDRun{}, a.Runs...), append([]IDRun{}, b.Runs...)) &&
		reflect.DeepEqual(append([]ID{}, a.ExternalParents...), append([]ID{}, b.ExternalParents...))
}

// testFrames is valid frames of every shape the format has: typing,
// deletes, concurrency, external parents, a cached doc, compression, an
// empty batch, random histories of a few hundred events.
func testFrames(t testing.TB) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	batches := [][]Event{
		typed("alice", "hello"),
		nil,
		{
			{ID: ID{"a", 0}, Insert: true, Pos: 0, Content: 'x'},
			{ID: ID{"b", 0}, Insert: true, Pos: 0, Content: 'é'},
			{ID: ID{"a", 1}, Parents: []ID{{"a", 0}, {"b", 0}}, Pos: 1},
			{ID: ID{"a", 2}, Parents: []ID{{"a", 1}}, Pos: 0},
		},
		{
			{ID: ID{"c", 9}, Parents: []ID{{"x", 41}, {"alice", 3}}, Insert: true, Pos: 3, Content: '漢'},
			{ID: ID{"c", 10}, Parents: []ID{{"c", 9}}, Insert: true, Pos: 4, Content: '🙂'},
		},
		randomBatch(rng, 40),
		randomBatch(rng, 400),
		typed("bob", "k"),
	}
	var frames [][]byte
	for i, evs := range batches {
		var data []byte
		var err error
		switch i % 3 {
		case 0:
			data, err = Encode(evs, Options{})
		case 1:
			data, err = Encode(evs, Options{Compress: true})
		default:
			data, err = EncodeRunsDoc(Runs(evs), "cached doc text", Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, data)
	}
	return frames
}

// TestDecoderReuseMatchesFresh: frames A, B, C… through one Decoder, in
// several orders, decode to what a fresh Decoder makes of each — runs and
// Inspect's summary alike.
func TestDecoderReuseMatchesFresh(t *testing.T) {
	frames := testFrames(t)
	rng := rand.New(rand.NewSource(5))
	d := new(Decoder)
	for round := 0; round < 20; round++ {
		for _, k := range rng.Perm(len(frames)) {
			want, err := DecodeRuns(frames[k], MaxBatchEvents)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.DecodeRuns(frames[k], MaxBatchEvents)
			if err != nil {
				t.Fatalf("round %d frame %d: reused decoder: %v", round, k, err)
			}
			if !sameRuns(*got, *want) {
				t.Fatalf("round %d frame %d: reused decoder %+v, fresh %+v", round, k, got, want)
			}
			wantInfo, err := Inspect(frames[k])
			if err != nil {
				t.Fatal(err)
			}
			gotInfo, err := d.Inspect(frames[k])
			if err != nil {
				t.Fatalf("round %d frame %d: reused Inspect: %v", round, k, err)
			}
			if !sameInfo(gotInfo, wantInfo) {
				t.Fatalf("round %d frame %d: reused Inspect %+v, fresh %+v", round, k, gotInfo, wantInfo)
			}
		}
	}
}

// corpusFrames reads the committed corpus of FuzzColencRoundTrip.
func corpusFrames(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzColencRoundTrip", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus: %v", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if q, ok := strings.CutPrefix(line, "[]byte("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, []byte(s))
			}
		}
	}
	return out
}

// TestDecoderSurvivesBadFrames: whatever a Decoder is fed between two
// good frames — every truncation of a valid frame, every byte of it
// damaged (with the checksum left stale, and redone so the damage reaches
// the column parsers), the fuzz corpus — the second good frame decodes
// as it would on a fresh Decoder, and so does Inspect.
func TestDecoderSurvivesBadFrames(t *testing.T) {
	frames := testFrames(t)
	good, victim := frames[2], frames[4]
	want, err := DecodeRuns(good, MaxBatchEvents)
	if err != nil {
		t.Fatal(err)
	}
	wantInfo, err := Inspect(good)
	if err != nil {
		t.Fatal(err)
	}

	var bad [][]byte
	for n := 0; n < len(victim); n++ {
		bad = append(bad, victim[:n])
	}
	for i := range victim {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			stale := append([]byte(nil), victim...)
			stale[i] ^= x
			bad = append(bad, stale)
			if i >= 9 {
				redone := append([]byte(nil), stale...)
				binary.LittleEndian.PutUint32(redone[5:9], crc32.Checksum(redone[9:], crcTable))
				bad = append(bad, redone)
			}
		}
	}
	bad = append(bad, corpusFrames(t)...)

	d := new(Decoder)
	rejected := 0
	for i, b := range bad {
		if _, err := d.DecodeRuns(good, MaxBatchEvents); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			_, err = d.DecodeRuns(b, 1<<16)
		} else {
			_, err = d.Inspect(b)
		}
		if err != nil {
			rejected++
		}
		got, err := d.DecodeRuns(good, MaxBatchEvents)
		if err != nil {
			t.Fatalf("after bad frame %d: %v", i, err)
		}
		if !sameRuns(*got, *want) {
			t.Fatalf("after bad frame %d: decoded %+v, want %+v", i, got, want)
		}
		info, err := d.Inspect(good)
		if err != nil || !sameInfo(info, wantInfo) {
			t.Fatalf("after bad frame %d: Inspect %+v (%v), want %+v", i, info, err, wantInfo)
		}
	}
	if rejected < len(bad)/2 {
		t.Fatalf("only %d of %d damaged frames were rejected: the damage is not reaching the decoder", rejected, len(bad))
	}
}

// TestDecoderReleasesLargeScratch: a Decoder holds on to at most
// keepElems elements per array (4× that for content) and maxInterned
// names between frames; what a maximal frame grew is gone by the time
// the next one is decoded.
func TestDecoderReleasesLargeScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	big, err := Encode(randomBatch(rng, 20000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Encode(typed("alice", "hi"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := new(Decoder)
	dec, err := d.DecodeRuns(big, MaxBatchEvents)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Runs) <= keepElems || cap(d.runs) <= keepElems {
		t.Fatalf("the large frame has %d runs: not large enough to test anything", len(dec.Runs))
	}
	if _, err := d.Inspect(big); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DecodeRuns(small, MaxBatchEvents); err != nil {
		t.Fatal(err)
	}
	held := cap(d.runs)*int(unsafe.Sizeof(Run{})) + cap(d.parents)*int(unsafe.Sizeof(ID{})) + cap(d.content)*4 +
		cap(d.table.runs)*int(unsafe.Sizeof(agentRun{})) + cap(d.table.names)*16 + cap(d.idRuns)*int(unsafe.Sizeof(IDRun{}))
	if cap(d.runs) > keepElems || cap(d.parents) > keepElems || cap(d.content) > 4*keepElems ||
		cap(d.table.runs) > keepElems || cap(d.table.names) > keepElems || cap(d.idRuns) > keepElems {
		t.Fatalf("scratch kept past the cap: runs %d parents %d content %d agent runs %d names %d id runs %d",
			cap(d.runs), cap(d.parents), cap(d.content), cap(d.table.runs), cap(d.table.names), cap(d.idRuns))
	}
	if held > 64<<10 {
		t.Fatalf("decoder holds %d bytes of arrays between frames, want at most 64 KiB", held)
	}

	// The name table: a stream of new names never holds more than
	// maxInterned, and never one longer than maxInternName.
	for i := 0; i < 3*maxInterned; i++ {
		frame, err := Encode(typed("agent-"+strconv.Itoa(i), "x"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.DecodeRuns(frame, MaxBatchEvents); err != nil {
			t.Fatal(err)
		}
	}
	long, err := Encode(typed(strings.Repeat("n", maxInternName+1), "x"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DecodeRuns(long, MaxBatchEvents); err != nil {
		t.Fatal(err)
	}
	if len(d.interned) > maxInterned {
		t.Fatalf("%d names interned, cap %d", len(d.interned), maxInterned)
	}
	for name := range d.interned {
		if len(name) > maxInternName {
			t.Fatalf("interned a %d-byte name", len(name))
		}
	}
}

// burstFrames is frames of 1–20 events, the size a live server relays:
// two authors typing and deleting in turn, each frame parented on the
// other author's last.
func burstFrames(t testing.TB, n int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	seq := map[string]int{}
	var last ID
	var frames [][]byte
	for len(frames) < n {
		agent := []string{"alice", "bob"}[len(frames)%2]
		var evs []Event
		burst, pos, insert := 1+rng.Intn(20), rng.Intn(50), rng.Intn(4) > 0
		for k := 0; k < burst; k++ {
			ev := Event{ID: ID{agent, seq[agent]}, Insert: insert, Pos: pos}
			if insert {
				ev.Content, ev.Pos = rune('a'+rng.Intn(26)), pos+k
			}
			if len(frames) > 0 || k > 0 {
				ev.Parents = []ID{last}
			}
			last = ev.ID
			seq[agent]++
			evs = append(evs, ev)
		}
		frame, err := Encode(evs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// TestBurstInspectAllocs: a reused Decoder inspects, and decodes, a
// burst-sized frame without allocating (Inspect took 13 objects a frame
// when every call built its own readers and tables).
func TestBurstInspectAllocs(t *testing.T) {
	frames := burstFrames(t, 64)
	d := new(Decoder)
	for _, f := range frames {
		if _, err := d.Inspect(f); err != nil {
			t.Fatal(err)
		}
		if _, err := d.DecodeRuns(f, MaxBatchEvents); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(4*len(frames), func() {
		if _, err := d.Inspect(frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs > 1 {
		t.Fatalf("Inspect of a burst frame: %.1f objects, want at most 1", allocs)
	}
	if allocs := testing.AllocsPerRun(4*len(frames), func() {
		if _, err := d.DecodeRuns(frames[i%len(frames)], MaxBatchEvents); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs > 0 {
		t.Fatalf("DecodeRuns of a burst frame on a reused decoder: %.1f objects, want 0", allocs)
	}
}

func BenchmarkBurstInspect(b *testing.B) {
	frames := burstFrames(b, 64)
	d := new(Decoder)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Inspect(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBurstDecodeRuns(b *testing.B) {
	frames := burstFrames(b, 64)
	d := new(Decoder)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeRuns(frames[i%len(frames)], MaxBatchEvents); err != nil {
			b.Fatal(err)
		}
	}
}
