package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"egwalker"
	"egwalker/internal/colenc"
	"egwalker/netsync"
)

// The admission check has two forms — a run at a time off a decoded
// frame (idSet.admit) and an event at a time (idSet.admitEvents). The
// tests here hold the first to the second.

type eid = egwalker.EventID

// ins builds n insert events by agent from seq, the first with the given
// parents, each later one parented on the one before.
func ins(agent string, seq, n int, parents ...eid) []egwalker.Event {
	evs := make([]egwalker.Event, n)
	for k := range evs {
		evs[k] = egwalker.Event{ID: eid{Agent: agent, Seq: seq + k}, Insert: true, Pos: k, Content: 'a' + rune(k%26)}
		if k == 0 {
			evs[k].Parents = parents
		} else {
			evs[k].Parents = []eid{evs[k-1].ID}
		}
	}
	return evs
}

func setOf(runs ...colenc.IDRun) *idSet {
	s := newIDSet()
	for _, r := range runs {
		s.addRun(r.Agent, r.Seq, r.Len)
	}
	return s
}

// verdict folds an admission result to what the two forms must agree on.
func verdict(fresh int, err error) string {
	switch {
	case err == nil:
		return fmt.Sprintf("accept %d", fresh)
	case errors.Is(err, errCausalGap):
		return "gap"
	default:
		return "error: " + err.Error()
	}
}

// repeatsID reports whether a batch names an event twice.
func repeatsID(events []egwalker.Event) bool {
	seen := map[eid]bool{}
	for _, ev := range events {
		if seen[ev.ID] {
			return true
		}
		seen[ev.ID] = true
	}
	return false
}

// checkAdmit encodes events as one compact frame and holds the
// frame-level check to the per-event one against known: the same
// verdict and count, admit itself stepping aside only for a frame that
// repeats an ID, neither changing known, and — when the frame is
// accepted — the same set afterwards whichever way it is added.
func checkAdmit(t testing.TB, known *idSet, events []egwalker.Event) (fresh int, err error) {
	t.Helper()
	raw, merr := egwalker.MarshalEventsCompact(events)
	if merr != nil {
		t.Fatalf("encoding the batch: %v", merr)
	}
	before := known.summary()
	want := verdict(known.admitEvents(events))

	dec := new(colenc.Decoder)
	d, derr := dec.DecodeRuns(raw, colenc.MaxBatchEvents)
	if derr != nil {
		t.Fatalf("decoding the frame: %v", derr)
	}
	if f, err := known.admit(d.Runs); errors.Is(err, errRepeatedID) {
		if !repeatsID(events) {
			t.Fatalf("admit stepped aside for a frame that repeats no ID: %+v", events)
		}
	} else if got := verdict(f, err); got != want {
		t.Fatalf("admit: %s; admitEvents: %s; batch %+v", got, want, events)
	}
	b := batch{raw: raw}
	fresh, runs, err := known.admitPayload(&b, dec)
	if got := verdict(fresh, err); got != want {
		t.Fatalf("admitPayload: %s; admitEvents: %s; batch %+v", got, want, events)
	}
	if !reflect.DeepEqual(known.summary(), before) {
		t.Fatalf("the admission check changed the set: %v -> %v", before, known.summary())
	}
	if err == nil && runs != nil {
		byRuns, byEvents := setOf(), setOf()
		byRuns.addRuns(runs)
		byEvents.addEvents(events)
		if !reflect.DeepEqual(byRuns.summary(), byEvents.summary()) {
			t.Fatalf("addRuns gives %v, addEvents %v", byRuns.summary(), byEvents.summary())
		}
	}
	return fresh, err
}

func TestAdmitMatchesPerEventReference(t *testing.T) {
	alice9, bob4 := eid{Agent: "alice", Seq: 9}, eid{Agent: "bob", Seq: 4}
	base := func() *idSet {
		return setOf(colenc.IDRun{Agent: "alice", Seq: 0, Len: 10}, colenc.IDRun{Agent: "bob", Seq: 0, Len: 5})
	}
	join := func(parts ...[]egwalker.Event) (out []egwalker.Event) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	carol := ins("carol", 0, 70, alice9)
	var crowd []egwalker.Event // twelve authors, one event each: more fresh runs than frameSeen's array
	for i := 0; i < 12; i++ {
		parent := alice9
		if i > 0 {
			parent = eid{Agent: fmt.Sprintf("w%02d", i-1), Seq: 0}
		}
		crowd = append(crowd, ins(fmt.Sprintf("w%02d", i), 0, 1, parent)...)
	}
	cases := []struct {
		name   string
		known  *idSet
		events []egwalker.Event
		want   string
	}{
		{"typing on", base(), ins("alice", 10, 5, alice9), "accept 5"},
		{"whole duplicate", base(), ins("alice", 3, 4, eid{Agent: "alice", Seq: 2}), "accept 0"},
		{"partial duplicate inside a run", base(), ins("alice", 8, 5, eid{Agent: "alice", Seq: 7}), "accept 3"},
		{"held first event excuses its parents", base(), ins("alice", 8, 5, eid{Agent: "zed", Seq: 99}), "accept 3"},
		{"hole in what is held", setOf(colenc.IDRun{Agent: "alice", Seq: 0, Len: 10}, colenc.IDRun{Agent: "alice", Seq: 12, Len: 3}),
			ins("alice", 10, 5, alice9), "accept 2"},
		{"merge of two held heads", base(), ins("alice", 10, 2, alice9, bob4), "accept 2"},
		{"new author's root", base(), ins("dave", 0, 3), "accept 3"},
		{"typing then backspace: two runs, default parent between", base(),
			join(ins("alice", 10, 4, alice9), []egwalker.Event{
				{ID: eid{Agent: "alice", Seq: 14}, Parents: []eid{{Agent: "alice", Seq: 13}}, Pos: 3},
				{ID: eid{Agent: "alice", Seq: 15}, Parents: []eid{{Agent: "alice", Seq: 14}}, Pos: 2},
			}), "accept 6"},
		{"in-batch parent past the back-reference window (external form)", base(),
			join(carol, ins("dave", 0, 2, carol[0].ID, carol[69].ID)), "accept 72"},
		{"parent later in the batch", base(), join(ins("dave", 0, 1, eid{Agent: "carol", Seq: 0}), ins("carol", 0, 3, alice9)), "gap"},
		{"causal gap", base(), ins("erin", 0, 2, eid{Agent: "zed", Seq: 5}), "gap"},
		{"gap behind a run that is fine", base(), join(ins("alice", 10, 3, alice9), ins("erin", 0, 2, eid{Agent: "alice", Seq: 40})), "gap"},
		{"gap one past what the batch brings", base(), join(ins("alice", 10, 3, alice9), ins("erin", 0, 1, eid{Agent: "alice", Seq: 13})), "gap"},
		{"an event twice in one frame", base(), join(ins("dave", 0, 2), ins("dave", 1, 2, eid{Agent: "dave", Seq: 0})), "accept 3"},
		{"second copy of an event excuses its parents", base(), join(ins("dave", 0, 1), ins("dave", 0, 1, eid{Agent: "zed", Seq: 1})), "accept 1"},
		{"more fresh runs than the array holds", base(),
			join(crowd, ins("dave", 0, 1, crowd[0].ID, crowd[10].ID)), "accept 13"},
		{"gap among more fresh runs than the array holds", base(),
			join(crowd, ins("dave", 0, 1, crowd[11].ID, eid{Agent: "w12", Seq: 0})), "gap"},
		{"repeat among more fresh runs than the array holds", base(), join(crowd, ins("w10", 0, 1, crowd[9].ID)), "accept 12"},
		{"empty batch", base(), nil, "accept 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := verdict(checkAdmit(t, c.known, c.events)); got != c.want {
				t.Fatalf("verdict %q, want %q", got, c.want)
			}
		})
	}
}

// session types a three-author document with syncs at random and returns
// deliveries for a server: each author's uploads since a version of its
// own choosing — usually its last upload, sometimes further back (a
// partial duplicate), sometimes ahead of what was uploaded (a gap).
func session(t testing.TB, rng *rand.Rand, uploads int) [][]egwalker.Event {
	t.Helper()
	docs := []*egwalker.Doc{egwalker.NewDoc("ann"), egwalker.NewDoc("bob"), egwalker.NewDoc("cy")}
	sent := make([][]egwalker.Version, len(docs)) // versions each author uploaded from, oldest first
	for i := range sent {
		sent[i] = []egwalker.Version{nil}
	}
	var out [][]egwalker.Event
	for len(out) < uploads {
		w := rng.Intn(len(docs))
		d := docs[w]
		for k := 1 + rng.Intn(3); k > 0; k-- {
			if d.Len() > 4 && rng.Intn(3) == 0 {
				if err := d.Delete(rng.Intn(d.Len()-3), 1+rng.Intn(3)); err != nil {
					t.Fatal(err)
				}
			} else if err := d.Insert(rng.Intn(d.Len()+1), "typed text"[:1+rng.Intn(9)]); err != nil {
				t.Fatal(err)
			}
		}
		from := sent[w][len(sent[w])-1]
		switch rng.Intn(12) {
		case 0, 1, 2: // re-send from further back
			from = sent[w][rng.Intn(len(sent[w]))]
		case 3: // an upload is lost: the next will not connect
			sent[w] = append(sent[w], d.Version())
			continue
		}
		evs, err := d.EventsSince(from)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, evs)
		sent[w] = append(sent[w], d.Version())
		if rng.Intn(2) == 0 {
			o := docs[rng.Intn(len(docs))]
			missing, err := d.EventsSinceSummary(o.Summary())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.Apply(missing); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestIngestFramesMatchReference: whole sessions of uploads — duplicates,
// partial duplicates, gaps — ingested as bare frames by a journal-only
// store admit what the per-event reference admits, count what it counts,
// and leave a journal that a crash and a reopen read back as the same
// set of events. A materialized twin takes the same uploads, half of them
// in the legacy encoding, and journals the same bytes, no event twice.
func TestIngestFramesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := t.TempDir()
		ds, err := OpenLazy(root, "doc", "server", Options{})
		if err != nil {
			t.Fatal(err)
		}
		twin, err := Open(t.TempDir(), "doc", "server", Options{})
		if err != nil {
			t.Fatal(err)
		}
		model := newIDSet()
		accepted, gaps, dups := 0, 0, 0
		for i, evs := range session(t, rng, 120) {
			want, werr := checkAdmit(t, model, evs)
			if werr != nil {
				gaps++
				continue // the store would materialize; the model has no document to ask
			}
			marshal := egwalker.MarshalEventsCompact
			if i%2 == 1 {
				marshal = egwalker.MarshalEvents
			}
			raw, err := marshal(evs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ds.IngestBatch(nil, raw)
			if err != nil || got != want {
				t.Fatalf("seed %d upload %d: IngestBatch = %d, %v; reference admits %d", seed, i, got, err, want)
			}
			if got, err := twin.IngestBatch(nil, raw); err != nil || got != want {
				t.Fatalf("seed %d upload %d: materialized IngestBatch = %d, %v; reference admits %d", seed, i, got, err, want)
			}
			if want < len(evs) {
				dups++
			}
			model.addEvents(evs)
			accepted++
		}
		if ds.loadState().inMemory() {
			t.Fatalf("seed %d: the store materialized on uploads the reference admits", seed)
		}
		t.Logf("seed %d: %d accepted, %d gaps, %d with duplicates", seed, accepted, gaps, dups)
		if accepted < 30 || gaps == 0 || dups == 0 {
			t.Fatalf("seed %d: %d accepted, %d gaps, %d with duplicates: the session is not exercising the check", seed, accepted, gaps, dups)
		}
		want := model.summary()
		if got, err := ds.Summary(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: journal-only summary %v (%v), reference %v", seed, got, err, want)
		}
		if files, twinFiles := segmentFiles(t, ds.dir), segmentFiles(t, twin.dir); !reflect.DeepEqual(files, twinFiles) {
			t.Fatalf("seed %d: the journal-only and the materialized store journaled different bytes", seed)
		}
		if err := twin.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ds.Sync(); err != nil {
			t.Fatal(err)
		}
		crashed, err := ds.Crash()
		if err != nil {
			t.Fatalf("seed %d: reopening after a crash: %v", seed, err)
		}
		if got, err := crashed.Summary(); err != nil || !reflect.DeepEqual(got, want) || crashed.NumEvents() != model.numEvents() {
			t.Fatalf("seed %d: after crash %d events, summary %v (%v); reference %d, %v", seed, crashed.NumEvents(), got, err, model.numEvents(), want)
		}
		if err := crashed.Close(); err != nil {
			t.Fatal(err)
		}
		lazy, err := OpenLazy(root, "doc", "server", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := lazy.Summary(); err != nil || lazy.loadState().inMemory() || !reflect.DeepEqual(got, want) || lazy.NumEvents() != model.numEvents() {
			t.Fatalf("seed %d: journal scan reads back %d events, summary %v (%v, materialized %v); reference %d, %v",
				seed, lazy.NumEvents(), got, err, lazy.loadState().inMemory(), model.numEvents(), want)
		}
		lazy.Close()
	}
}

// segmentFiles returns the bytes of a document directory's WAL segments
// by name, and fails the test when their blocks journal an event twice.
func segmentFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	journaled(t, dir, files)
	return files
}

// journaled returns the payload of every block in a document directory's
// WAL segments, oldest first, and fails the test when two blocks hold
// the same event. files, when not nil, is given each segment's bytes.
func journaled(t *testing.T, dir string, files map[string]string) [][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	seen := map[eid]bool{}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if files != nil {
			files[filepath.Base(name)] = string(data)
		}
		w, err := walkSegmentBlocks(data, func(payload []byte) error {
			evs, err := egwalker.UnmarshalEventsAuto(payload)
			for _, ev := range evs {
				if seen[ev.ID] {
					return fmt.Errorf("%v journaled twice", ev.ID)
				}
				seen[ev.ID] = true
			}
			payloads = append(payloads, append([]byte(nil), payload...))
			return err
		})
		if err == nil {
			err = w.tail
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return payloads
}

// TestJournalHoldsWhatWasSent: an upload of new events in the encoding
// the one writer picks for its size is journaled as it was sent; one in
// the other encoding, or one that repeats held events, is journaled as
// what egwalker.MarshalBatches writes for the events it added; one that
// adds nothing journals nothing. Each case gives the same journal on a
// journal-only store and on a materialized one.
func TestJournalHoldsWhatWasSent(t *testing.T) {
	w := egwalker.NewDoc("writer")
	typed := func(text string) []egwalker.Event {
		v := w.Version()
		if err := w.Insert(w.Len(), text); err != nil {
			t.Fatal(err)
		}
		evs, err := w.EventsSince(v)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	encode := func(marshal func([]egwalker.Event) ([]byte, error), evs []egwalker.Event) []byte {
		raw, err := marshal(evs)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	written := func(evs []egwalker.Event) [][]byte {
		payloads, err := egwalker.MarshalBatches(evs)
		if err != nil {
			t.Fatal(err)
		}
		return payloads
	}
	held := typed("held ")
	twenty, two, legacy, more := typed("twenty characters..."), typed("ab"), typed("cd"), typed("more")
	overlap := append(append([]egwalker.Event(nil), held[2:]...), twenty[:4]...)
	cases := []struct {
		name    string
		history [][]egwalker.Event // uploaded, in order, before the upload
		raw     []byte
		fresh   int
		want    [][]byte // the blocks the upload journals
	}{
		{"20 events, columnar", nil, encode(egwalker.MarshalEventsCompact, twenty), 20, [][]byte{encode(egwalker.MarshalEventsCompact, twenty)}},
		{"2 events, columnar", [][]egwalker.Event{twenty}, encode(egwalker.MarshalEventsCompact, two), 2, written(two)},
		{"2 events, legacy", [][]egwalker.Event{twenty, two}, encode(egwalker.MarshalEvents, legacy), 2, [][]byte{encode(egwalker.MarshalEvents, legacy)}},
		{"4 events, legacy", [][]egwalker.Event{twenty, two, legacy}, encode(egwalker.MarshalEvents, more), 4, written(more)},
		{"overlapping", nil, encode(egwalker.MarshalEventsCompact, overlap), 4, written(twenty[:4])},
		{"all duplicates", nil, encode(egwalker.MarshalEventsCompact, held), 0, nil},
	}
	for _, c := range cases {
		for _, mode := range openModes {
			t.Run(c.name+"/"+mode.name, func(t *testing.T) {
				ds, err := mode.open(t.TempDir(), "doc", "server", Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer ds.Close()
				for _, evs := range append([][]egwalker.Event{held}, c.history...) {
					if _, err := ds.IngestBatch(nil, encode(egwalker.MarshalEventsCompact, evs)); err != nil {
						t.Fatal(err)
					}
				}
				before := len(journaled(t, ds.dir, nil))
				if fresh, err := ds.IngestBatch(nil, c.raw); err != nil || fresh != c.fresh {
					t.Fatalf("IngestBatch = %d, %v; want %d new events", fresh, err, c.fresh)
				}
				if got := journaled(t, ds.dir, nil)[before:]; !slices.EqualFunc(got, c.want, bytes.Equal) {
					t.Fatalf("journaled %d blocks %x, want %d: %x", len(got), got, len(c.want), c.want)
				}
				if ds.loadState().inMemory() != (mode.name == "Open") {
					t.Fatalf("materialized = %v after an upload without a gap", ds.loadState().inMemory())
				}
			})
		}
	}

	// An upload whose parent has not arrived waits in memory; once the
	// parent comes, both are journaled. A frame that sends an event before
	// its parent is applied whole, and the journal gets it in causal
	// order, which a reopen admits. Either way both events are there after
	// a crash and a reopen in both modes.
	parent, child := typed("p"), typed("c")
	misordered := append(slices.Clone(child), parent...)
	for _, c := range []struct {
		name    string
		uploads [][]byte
		fresh   []int
	}{
		{"gap then parent", [][]byte{encode(egwalker.MarshalEvents, child), encode(egwalker.MarshalEvents, parent)}, []int{0, 2}},
		{"child before parent, legacy", [][]byte{encode(egwalker.MarshalEvents, misordered)}, []int{2}},
		{"child before parent, columnar", [][]byte{encode(egwalker.MarshalEventsCompact, misordered)}, []int{2}},
	} {
		for _, mode := range openModes {
			t.Run(c.name+"/"+mode.name, func(t *testing.T) {
				root := t.TempDir()
				ds, err := mode.open(root, "doc", "server", Options{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ds.IngestBatch(nil, encode(egwalker.MarshalEventsCompact, w.Events()[:len(w.Events())-2])); err != nil {
					t.Fatal(err)
				}
				for i, raw := range c.uploads {
					if fresh, err := ds.IngestBatch(nil, raw); err != nil || fresh != c.fresh[i] {
						t.Fatalf("upload %d: %d new events, %v; want %d, nil", i, fresh, err, c.fresh[i])
					}
				}
				if err := ds.Sync(); err != nil {
					t.Fatal(err)
				}
				crashed, err := ds.Crash()
				if err != nil {
					t.Fatal(err)
				}
				if n := crashed.NumEvents(); n != w.NumEvents() {
					t.Fatalf("after a crash the store holds %d events, want %d", n, w.NumEvents())
				}
				crashed.Close()
				stores, _ := openEachWay(t, root, "doc")
				for i, ds := range stores {
					if n := ds.NumEvents(); n != w.NumEvents() || ds.Text() != w.Text() {
						t.Errorf("%s: %d events reading %q, want %d reading %q", openModes[i].name, n, ds.Text(), w.NumEvents(), w.Text())
					}
					ds.Close()
				}
				ids := map[eid]bool{}
				for _, payload := range journaled(t, filepath.Join(root, escapeDocID("doc")), nil) {
					evs, _ := egwalker.UnmarshalEventsAuto(payload)
					for _, ev := range evs {
						ids[ev.ID] = true
					}
				}
				if !ids[parent[0].ID] || !ids[child[0].ID] {
					t.Fatalf("journal holds parent %v, child %v; want both", ids[parent[0].ID], ids[child[0].ID])
				}
			})
		}
	}
}

// FuzzIngestFrame feeds arbitrary bytes to the admission check of a
// journal-only store. Whatever the full decoder accepts must get, from
// the frame-level check, the verdict and count the per-event reference
// gives its events, against several shapes of what the store holds; and
// an accepted frame must add the same events either way.
func FuzzIngestFrame(f *testing.F) {
	alice9 := eid{Agent: "alice", Seq: 9}
	for _, evs := range [][]egwalker.Event{
		ins("alice", 10, 5, alice9),
		ins("alice", 8, 5, eid{Agent: "alice", Seq: 7}),
		ins("erin", 0, 2, eid{Agent: "zed", Seq: 5}),
		append(ins("dave", 0, 1, eid{Agent: "carol", Seq: 0}), ins("carol", 0, 3, alice9)...),
		append(ins("dave", 0, 2), ins("dave", 1, 2, eid{Agent: "dave", Seq: 0})...),
		append(ins("carol", 0, 70, alice9), ins("dave", 0, 2, eid{Agent: "carol", Seq: 0}, eid{Agent: "carol", Seq: 69})...),
	} {
		raw, err := egwalker.MarshalEventsCompact(evs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte("EGC2"))
	dec := new(colenc.Decoder)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := dec.DecodeRuns(data, 1<<12)
		if err != nil {
			return
		}
		events, err := egwalker.UnmarshalEventsAuto(data)
		if err != nil {
			t.Fatalf("DecodeRuns accepts, UnmarshalEventsAuto: %v", err)
		}
		for _, known := range []*idSet{
			setOf(),
			setOf(colenc.IDRun{Agent: "alice", Seq: 0, Len: 10}, colenc.IDRun{Agent: "bob", Seq: 0, Len: 5}),
			setOf(colenc.IDRun{Agent: "alice", Seq: 0, Len: 9}, colenc.IDRun{Agent: "alice", Seq: 11, Len: 2}, colenc.IDRun{Agent: "carol", Seq: 1, Len: 40}),
		} {
			want := verdict(known.admitEvents(events))
			if fresh, err := known.admit(d.Runs); errors.Is(err, errRepeatedID) {
				if !repeatsID(events) {
					t.Fatalf("admit stepped aside for a frame that repeats no ID")
				}
			} else if got := verdict(fresh, err); got != want {
				t.Fatalf("admit: %s; admitEvents: %s", got, want)
			} else if err == nil {
				byRuns, byEvents := setOf(), setOf()
				byRuns.addRuns(d.Runs)
				byEvents.addEvents(events)
				if !reflect.DeepEqual(byRuns.summary(), byEvents.summary()) {
					t.Fatalf("addRuns gives %v, addEvents %v", byRuns.summary(), byEvents.summary())
				}
			}
		}
	})
}

// corruptColumn returns a compact frame of a few typed characters whose
// envelope is sound — magic, flags, column framing, checksum — but whose
// ops column (an op tag no decoder knows) or content column (invalid
// UTF-8) is not: what Inspect passes and a full decode refuses.
func corruptColumn(t *testing.T, agent string, content bool) []byte {
	t.Helper()
	raw, err := egwalker.MarshalEventsCompact(ins(agent, 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Layout after the 9-byte header: event count, then each column
	// length-prefixed (one-byte lengths at this size): agents, ops,
	// parents, content.
	off := 10
	for col := 0; ; col++ {
		ln := int(raw[off])
		if col == 1 && !content {
			raw[off+1] = 7 // op tag
			break
		}
		if col == 3 {
			raw[off+1] = 0xff
			break
		}
		off += 1 + ln
	}
	binary.LittleEndian.PutUint32(raw[5:9], crc32.Checksum(raw[9:], crc32.MakeTable(crc32.Castagnoli)))
	return raw
}

// TestHostileUploadJournalOnly: a frame that is sound as far as Inspect
// looks and corrupt in its ops or content column, uploaded through
// ServeConn to a journal-only document, is refused — the WAL does not
// change by a byte, no subscriber receives anything, and the document
// still materializes to what it was. Against a materialized document
// the same upload is refused the same way.
func TestHostileUploadJournalOnly(t *testing.T) {
	for _, materialized := range []bool{false, true} {
		for _, content := range []bool{false, true} {
			t.Run(fmt.Sprintf("materialized=%v/content=%v", materialized, content), func(t *testing.T) {
				srv := newTestServer(t, ServerOptions{FlushInterval: -1})
				const docID = "hostile"
				seed := egwalker.NewDoc("seed")
				if err := seed.Insert(0, "what was there before"); err != nil {
					t.Fatal(err)
				}
				if err := srv.Append(docID, seed.Events()); err != nil {
					t.Fatal(err)
				}
				if err := srv.With(docID, func(ds *DocStore) error { return ds.dematerialize() }); err != nil {
					t.Fatal(err)
				}
				if materialized {
					if _, err := srv.Text(docID); err != nil {
						t.Fatal(err)
					}
				}
				if got := srv.MetricsSnapshot().MaterializedDocs == 1; got != materialized {
					t.Fatalf("materialized = %v, want %v", got, materialized)
				}
				wal := func() []byte {
					t.Helper()
					segs, err := filepath.Glob(filepath.Join(srv.root, docID, "wal-*.seg"))
					if err != nil || len(segs) != 1 {
						t.Fatalf("segments: %v, %v", segs, err)
					}
					b, err := os.ReadFile(segs[0])
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				before := wal()

				// A subscriber that holds everything, and the uploader.
				subConn, ss := net.Pipe()
				serveOne(t, srv, ss)
				sub := netsync.NewPeerConn(subConn)
				if err := sub.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: seed.Summary()}); err != nil {
					t.Fatal(err)
				}
				if evs, _, _, err := sub.Recv(); err != nil || len(evs) != 0 {
					t.Fatalf("subscriber catch-up: %d events, %v", len(evs), err)
				}
				upConn, us := net.Pipe()
				served := make(chan error, 1)
				go func() {
					defer us.Close()
					served <- srv.ServeConn(us)
				}()
				up := netsync.NewPeerConn(upConn)
				if err := up.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: seed.Summary()}); err != nil {
					t.Fatal(err)
				}
				if _, _, _, err := up.Recv(); err != nil {
					t.Fatal(err)
				}

				frame := corruptColumn(t, "mallory", content)
				if _, err := colenc.Inspect(frame); err != nil {
					t.Fatalf("the frame must pass Inspect to test anything: %v", err)
				}
				if _, err := egwalker.UnmarshalEventsAuto(frame); err == nil {
					t.Fatal("the frame must fail a full decode to test anything")
				}
				if err := up.SendRaw(frame); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-served:
					if err == nil {
						t.Fatal("ServeConn returned no error for a corrupt upload")
					}
				case <-time.After(5 * time.Second):
					t.Fatal("ServeConn still serving the uploader of a corrupt frame")
				}
				upConn.Close()

				// The subscriber gets the next good batch and nothing before it.
				if err := seed.Insert(0, "and after: "); err != nil {
					t.Fatal(err)
				}
				tail, err := seed.EventsSince(egwalker.Version{{Agent: "seed", Seq: 20}})
				if err != nil {
					t.Fatal(err)
				}
				if got := wal(); string(got) != string(before) {
					t.Fatalf("the WAL changed: %d -> %d bytes", len(before), len(got))
				}
				if err := srv.Append(docID, tail); err != nil {
					t.Fatal(err)
				}
				evs, _, _, err := sub.Recv()
				if err != nil || !reflect.DeepEqual(evs, tail) {
					t.Fatalf("subscriber received %+v (%v), want the good batch %+v", evs, err, tail)
				}
				subConn.Close()
				if got, err := srv.Text(docID); err != nil || got != seed.Text() {
					t.Fatalf("document text %q (%v), want %q", got, err, seed.Text())
				}
			})
		}
	}
}

// burstUploads types a two-author session in keystroke-sized bursts and
// returns each as the compact frame its author uploads, in an order a
// server can admit without a gap.
func burstUploads(tb testing.TB, n int) (frames [][]byte, events int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	docs := []*egwalker.Doc{egwalker.NewDoc("alice"), egwalker.NewDoc("bob")}
	for len(frames) < n {
		w := len(frames) % 2
		d, o := docs[w], docs[1-w]
		missing, err := o.EventsSinceSummary(d.Summary())
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := d.Apply(missing); err != nil {
			tb.Fatal(err)
		}
		before := d.Version()
		burst := 1 + rng.Intn(20)
		if d.Len() > burst && rng.Intn(4) == 0 {
			err = d.Delete(rng.Intn(d.Len()-burst), burst)
		} else {
			err = d.Insert(rng.Intn(d.Len()+1), "abcdefghijklmnopqrstuvwxyz"[:burst])
		}
		if err != nil {
			tb.Fatal(err)
		}
		evs, err := d.EventsSince(before)
		if err != nil {
			tb.Fatal(err)
		}
		frame, err := egwalker.MarshalEventsCompact(evs)
		if err != nil {
			tb.Fatal(err)
		}
		frames, events = append(frames, frame), events+len(evs)
	}
	return frames, events
}

// TestBurstIngestAllocs: a journal-only store takes a keystroke-sized
// upload in the encoding the one writer picks for its size — validates
// the frame in full, admits it, wraps it in a WAL block, writes it. A
// columnar frame of 4 or more events costs at most 2 objects: the block,
// and now and then the known set's slice for an author growing; no
// []Event, no map, no decoder state. A legacy frame of 1 to 3 events,
// which is what every sender in the repo writes for a keystroke, is
// decoded to its events and admitted an event at a time: at most 9
// objects (about 8 here; 10 while admission kept the batch's IDs in a
// map). A columnar frame of 1 to 3 events, which the journal re-encodes
// in the legacy codec, is counted apart, at most 11 objects (about 10
// here): its events decoded, the legacy writer's maps and buffer, the
// block. Each upload's objects are counted exactly, not averaged and
// rounded down.
func TestBurstIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not pool under the race detector")
	}
	frames, events := burstUploads(t, 400)
	// The same bursts as the one writer encodes them: legacy below
	// colenc.ColumnarFrom events.
	written := make([][]byte, len(frames))
	for i, f := range frames {
		evs, err := egwalker.UnmarshalEventsAuto(f)
		if err != nil {
			t.Fatal(err)
		}
		raws, err := egwalker.MarshalBatches(evs)
		if err != nil || len(raws) != 1 {
			t.Fatalf("MarshalBatches: %d frames, %v", len(raws), err)
		}
		written[i] = raws[0]
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// [0] columnar, sealed as sent; [1] columnar, re-encoded; [2] legacy,
	// sealed as sent.
	var objects, uploads [3]uint64
	for _, legacy := range []bool{false, true} {
		ds, err := OpenLazy(t.TempDir(), "doc", "server", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		in := frames
		if legacy {
			in = written
		}
		fresh := 0
		var ms runtime.MemStats
		for i, f := range in {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			n, err := ds.IngestBatch(nil, f)
			runtime.ReadMemStats(&ms)
			if err != nil {
				t.Fatal(err)
			}
			fresh += n
			if i < 100 { // warm the pooled decoder
				continue
			}
			k := 0
			switch {
			case n >= colenc.ColumnarFrom && legacy:
				continue // the same frame as in the first pass
			case n < colenc.ColumnarFrom && legacy:
				k = 2
			case n < colenc.ColumnarFrom:
				k = 1
			}
			objects[k] += ms.Mallocs - before
			uploads[k]++
		}
		if ds.loadState().inMemory() || fresh != events || ds.NumEvents() != events {
			t.Fatalf("ingested %d of %d events (store holds %d, materialized %v)", fresh, events, ds.NumEvents(), ds.loadState().inMemory())
		}
	}
	for k, bound := range []float64{2, 11, 9} {
		name := [3]string{"columnar, sealed as sent", "columnar, re-encoded", "legacy, sealed as sent"}[k]
		if uploads[k] == 0 {
			t.Fatalf("no upload %s among the burst frames", name)
		}
		avg := float64(objects[k]) / float64(uploads[k])
		t.Logf("%d uploads %s: %.2f objects each", uploads[k], name, avg)
		if avg > bound {
			t.Errorf("journal-only IngestBatch of a burst frame %s: %.2f objects, want at most %v", name, avg, bound)
		}
	}
}

func BenchmarkBurstIngest(b *testing.B) {
	frames, _ := burstUploads(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	var ds *DocStore
	for i := 0; i < b.N; i++ {
		if i%len(frames) == 0 {
			b.StopTimer()
			if ds != nil {
				ds.Close()
			}
			var err error
			if ds, err = OpenLazy(b.TempDir(), "doc", "server", Options{}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := ds.IngestBatch(nil, frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	if ds != nil {
		ds.Close()
	}
}
