package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"egwalker"
)

func mustOpen(t *testing.T, root, docID string, opts Options) *DocStore {
	t.Helper()
	ds, err := Open(root, docID, "tester", opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", docID, err)
	}
	return ds
}

// openEachWay opens a copy of the document docID under root once per
// open mode, and holds OpenLazy followed by Materialize to what Open
// gives: the same text, event count, summary and RecoveryInfo, and the
// same bytes left in the directory. It returns the stores in openModes
// order, open, and whether OpenLazy came up materialized.
func openEachWay(t *testing.T, root, docID string) ([]*DocStore, bool) {
	t.Helper()
	var stores []*DocStore
	var dirs []map[string]string
	lazyMaterialized := false
	for _, mode := range openModes {
		copied := t.TempDir()
		if err := os.CopyFS(copied, os.DirFS(root)); err != nil {
			t.Fatal(err)
		}
		ds, err := mode.open(copied, docID, "tester", Options{})
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if mode.name == "OpenLazy" {
			lazyMaterialized = ds.loadState().inMemory()
		}
		if err := ds.Materialize(); err != nil {
			t.Fatalf("%s, Materialize: %v", mode.name, err)
		}
		files := map[string]string{}
		entries, err := os.ReadDir(ds.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() == "LOCK" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(ds.dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		stores, dirs = append(stores, ds), append(dirs, files)
	}
	open := stores[0]
	openSum, err := open.Summary()
	if err != nil {
		t.Fatal(err)
	}
	for i, ds := range stores[1:] {
		name := openModes[i+1].name
		sum, err := ds.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if ds.Text() != open.Text() || ds.NumEvents() != open.NumEvents() || !reflect.DeepEqual(sum, openSum) {
			t.Errorf("%s: %d events reading %q, Open: %d reading %q", name, ds.NumEvents(), ds.Text(), open.NumEvents(), open.Text())
		}
		if ds.Recovery() != open.Recovery() {
			t.Errorf("%s recovered %+v, Open %+v", name, ds.Recovery(), open.Recovery())
		}
		if !reflect.DeepEqual(dirs[i+1], dirs[0]) {
			t.Errorf("%s left other bytes in the directory than Open", name)
		}
	}
	return stores, lazyMaterialized
}

func TestBasicPersistence(t *testing.T) {
	root := t.TempDir()
	ds := mustOpen(t, root, "doc-1", Options{})
	if err := ds.Insert(0, "hello durable world"); err != nil {
		t.Fatal(err)
	}
	if err := ds.Delete(5, 8); err != nil {
		t.Fatal(err)
	}
	want := ds.Text()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, root, "doc-1", Options{})
	defer re.Close()
	if got := re.Text(); got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
	if re.Recovery().EventsReplayed == 0 {
		t.Fatal("expected WAL replay on reopen (no snapshot was taken)")
	}
}

func TestSnapshotAndCompaction(t *testing.T) {
	root := t.TempDir()
	ds := mustOpen(t, root, "doc", Options{SegmentMaxBytes: 512})
	for i := 0; i < 200; i++ {
		if err := ds.Insert(ds.Len(), fmt.Sprintf("line %d\n", i)); err != nil {
			t.Fatal(err)
		}
	}
	want := ds.Text()
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	// After compaction: exactly one snapshot, and only the active (post-
	// snapshot) segment remains.
	snapBytes, _, files := ds.DiskUsage()
	if snapBytes == 0 {
		t.Fatal("no snapshot on disk after Compact")
	}
	if files != 2 {
		t.Fatalf("want 1 snapshot + 1 active segment after Compact, found %d files", files)
	}
	// More edits land in the WAL tail after the snapshot.
	if err := ds.Insert(0, "post-snapshot edit. "); err != nil {
		t.Fatal(err)
	}
	want = ds.Text()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, root, "doc", Options{SegmentMaxBytes: 512})
	defer re.Close()
	if got := re.Text(); got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
	ri := re.Recovery()
	if ri.SnapshotSeq == 0 {
		t.Fatal("reopen did not use the snapshot")
	}
	if ri.EventsReplayed != 20 { // the post-snapshot insert, one event per rune
		t.Fatalf("replayed %d events from the tail, want 20", ri.EventsReplayed)
	}
}

func TestAutoSnapshotEvery(t *testing.T) {
	root := t.TempDir()
	ds := mustOpen(t, root, "auto", Options{SnapshotEvery: 50})
	for i := 0; i < 30; i++ {
		if err := ds.Insert(ds.Len(), "0123456789"); err != nil {
			t.Fatal(err)
		}
	}
	if ds.unsnapshottedEvents() >= 50 {
		t.Fatalf("auto snapshot never fired: %d unsnapshotted", ds.unsnapshottedEvents())
	}
	snapBytes, _, _ := ds.DiskUsage()
	if snapBytes == 0 {
		t.Fatal("no snapshot written by SnapshotEvery policy")
	}
	want := ds.Text()
	ds.Close()
	re := mustOpen(t, root, "auto", Options{})
	defer re.Close()
	if re.Text() != want {
		t.Fatalf("recovered %q, want %q", re.Text(), want)
	}
}

// TestCrashLosesOnlyUnsynced: DocStore.Crash truncates to the fsync
// horizon; everything synced must survive, byte-exact.
func TestCrashLosesOnlyUnsynced(t *testing.T) {
	root := t.TempDir()
	ds := mustOpen(t, root, "crashy", Options{})
	if err := ds.Insert(0, "durable prefix. "); err != nil {
		t.Fatal(err)
	}
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := ds.Text()
	if err := ds.Insert(ds.Len(), "doomed suffix"); err != nil {
		t.Fatal(err)
	}
	re, err := ds.Crash()
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Text(); got != durable {
		t.Fatalf("after crash: %q, want synced prefix %q", got, durable)
	}
	// The store keeps working after recovery.
	if err := re.Insert(re.Len(), "life goes on"); err != nil {
		t.Fatal(err)
	}
}

// randomEdits drives n random events into ds, syncing after every
// burst, and returns the text at each sync point keyed by the WAL's
// on-disk length — the reference the kill-point tests compare against.
func randomEdits(t *testing.T, ds *DocStore, rng *rand.Rand, n int) (boundaries []int64, texts []string) {
	t.Helper()
	events := 0
	for events < n {
		if ds.Len() > 0 && rng.Intn(4) == 0 {
			pos := rng.Intn(ds.Len())
			cnt := 1 + rng.Intn(min(3, ds.Len()-pos))
			if err := ds.Delete(pos, cnt); err != nil {
				t.Fatal(err)
			}
			events += cnt
		} else {
			word := make([]byte, 1+rng.Intn(6))
			for i := range word {
				word[i] = byte('a' + rng.Intn(26))
			}
			if err := ds.Insert(rng.Intn(ds.Len()+1), string(word)); err != nil {
				t.Fatal(err)
			}
			events += len(word)
		}
		if err := ds.Sync(); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, ds.activeSize)
		texts = append(texts, ds.Text())
	}
	return boundaries, texts
}

// TestKillPointRecovery is the crash-recovery property test: kill the
// store mid-append at a randomized byte offset (simulated by truncating
// the single WAL segment), reopen, and the recovered text must equal
// the reference text at the last frame boundary at or below the kill
// point — every committed-and-intact frame survives, nothing else. Both
// open paths recover the same document from the same damage.
func TestKillPointRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 25; round++ {
		root := t.TempDir()
		ds := mustOpen(t, root, "kill", Options{SegmentMaxBytes: 1 << 30}) // one segment
		boundaries, texts := randomEdits(t, ds, rng, 120)
		seg := filepath.Join(ds.dir, segName(ds.activeSeq))
		ds.Close()

		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		kill := int64(segHeaderLen) + int64(rng.Intn(int(int64(len(data))-segHeaderLen)+1))
		if err := os.Truncate(seg, kill); err != nil {
			t.Fatal(err)
		}

		// Reference: the last sync boundary at or below the kill point.
		want := ""
		for i, b := range boundaries {
			if b <= kill {
				want = texts[i]
			}
		}

		stores, _ := openEachWay(t, root, "kill")
		for i, re := range stores {
			if got := re.Text(); got != want {
				t.Fatalf("round %d kill %d, %s: recovered %q, want %q", round, kill, openModes[i].name, got, want)
			}
			// Recovery must leave a writable store.
			if err := re.Insert(0, "x"); err != nil {
				t.Fatalf("round %d, %s: store dead after recovery: %v", round, openModes[i].name, err)
			}
			re.Close()
		}
	}
}

// TestBitFlipRecovery: a single flipped byte anywhere past the segment
// header must never produce silently wrong text — recovery yields some
// sync-boundary prefix of the history (the checksum catches the damage
// and the tail is dropped), the same one on both open paths.
func TestBitFlipRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
	for round := 0; round < 25; round++ {
		root := t.TempDir()
		ds := mustOpen(t, root, "flip", Options{SegmentMaxBytes: 1 << 30})
		_, texts := randomEdits(t, ds, rng, 80)
		seg := filepath.Join(ds.dir, segName(ds.activeSeq))
		ds.Close()

		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		at := segHeaderLen + rng.Intn(len(data)-segHeaderLen)
		data[at] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(seg, data, 0o666); err != nil {
			t.Fatal(err)
		}

		stores, _ := openEachWay(t, root, "flip")
		got := stores[0].Text()
		for _, re := range stores {
			re.Close()
		}
		valid := got == ""
		for _, txt := range texts {
			if got == txt {
				valid = true
				break
			}
		}
		if !valid {
			t.Fatalf("round %d flip@%d: recovered text %q is not a sync-boundary state", round, at, got)
		}
	}
}

// TestTornSnapshotFallsBack: a snapshot that was cut short (crash
// mid-write before the atomic rename would normally prevent this, but
// bit rot can do it too) is skipped in favour of the older snapshot +
// WAL replay, on both open paths; the lazy one stays journal-only on the
// older snapshot.
func TestTornSnapshotFallsBack(t *testing.T) {
	root := t.TempDir()
	ds := mustOpen(t, root, "snapfall", Options{})
	if err := ds.Insert(0, "generation one "); err != nil {
		t.Fatal(err)
	}
	if err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Insert(ds.Len(), "generation two"); err != nil {
		t.Fatal(err)
	}
	if err := ds.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := ds.Text()
	newest := filepath.Join(ds.dir, snapName(ds.snapSeq))
	ds.Close()

	// Mangle the newest snapshot.
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}

	stores, lazyMaterialized := openEachWay(t, root, "snapfall")
	for _, re := range stores {
		defer re.Close()
	}
	re := stores[0]
	if got := re.Text(); got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
	if re.Recovery().SkippedSnapshots != 1 {
		t.Fatalf("SkippedSnapshots = %d, want 1", re.Recovery().SkippedSnapshots)
	}
	if lazyMaterialized {
		t.Fatal("OpenLazy materialized past a torn snapshot; want it journal-only on the older one")
	}
}

func TestRemoteApplyJournaled(t *testing.T) {
	root := t.TempDir()
	peer := egwalker.NewDoc("peer")
	if err := peer.Insert(0, "remote events incoming"); err != nil {
		t.Fatal(err)
	}
	ds := mustOpen(t, root, "remote", Options{})
	if _, err := ds.Apply(peer.Events()); err != nil {
		t.Fatal(err)
	}
	want := ds.Text()
	ds.Close()
	re := mustOpen(t, root, "remote", Options{})
	defer re.Close()
	if re.Text() != want || want != peer.Text() {
		t.Fatalf("remote apply not journaled: %q / %q / %q", re.Text(), want, peer.Text())
	}
}

func TestHandAppendedBlockReplays(t *testing.T) {
	// A block written from another replica's events and appended to a
	// segment by hand must replay.
	root := t.TempDir()
	ds := mustOpen(t, root, "delta", Options{})
	if err := ds.Insert(0, "base"); err != nil {
		t.Fatal(err)
	}
	other := egwalker.NewDoc("other")
	if _, err := other.Apply(ds.Events()); err != nil {
		t.Fatal(err)
	}
	base := other.Version()
	if err := other.Insert(other.Len(), " + sideline edits"); err != nil {
		t.Fatal(err)
	}
	evs, err := other.EventsSince(base)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := encodeBlocks(evs)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(ds.dir, segName(ds.activeSeq))
	ds.Close()
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Join(blocks, nil)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := mustOpen(t, root, "delta", Options{})
	defer re.Close()
	if got, want := re.Text(), other.Text(); got != want {
		t.Fatalf("hand-appended block not replayed: %q, want %q", got, want)
	}
}

func TestDoubleOpenLocked(t *testing.T) {
	root := t.TempDir()
	ds := mustOpen(t, root, "locked", Options{})
	if _, err := Open(root, "locked", "other", Options{}); err == nil {
		t.Fatal("second Open of a live document dir succeeded; WAL would be shredded")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, root, "locked", Options{}) // lock released on Close
	re.Close()
}

// TestWideFrontierJournals: an event whose parents are a many-headed
// frontier (17+ replicas all editing from the same version) must
// journal and recover — the codec's parent cap is a sanity bound, not
// a concurrency limit, and a rejected batch must not brick the store.
func TestWideFrontierJournals(t *testing.T) {
	root := t.TempDir()
	base := egwalker.NewDoc("base")
	if err := base.Insert(0, "shared"); err != nil {
		t.Fatal(err)
	}
	ds := mustOpen(t, root, "wide", Options{})
	if _, err := ds.Apply(base.Events()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		fork, err := base.Fork(fmt.Sprintf("head-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := fork.Insert(0, "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Apply(fork.Events()); err != nil {
			t.Fatal(err)
		}
	}
	// This local edit's event has 20 parents.
	if err := ds.Insert(0, "!"); err != nil {
		t.Fatalf("wide-frontier edit rejected: %v", err)
	}
	want := ds.Text()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, root, "wide", Options{})
	defer re.Close()
	if re.Text() != want {
		t.Fatalf("recovered %q, want %q", re.Text(), want)
	}
}

func TestDocIDEscaping(t *testing.T) {
	ids := []string{"plain", "with/slash", "../evil", "sp ace", "uni-ço∂é", ".dotfirst", "%percent"}
	root := t.TempDir()
	for _, id := range ids {
		esc := escapeDocID(id)
		if strings.ContainsAny(esc, "/ ") || strings.HasPrefix(esc, ".") {
			t.Fatalf("escape(%q) = %q is not filesystem-safe", id, esc)
		}
		back, err := unescapeDocID(esc)
		if err != nil || back != id {
			t.Fatalf("unescape(escape(%q)) = %q, %v", id, back, err)
		}
		ds := mustOpen(t, root, id, Options{})
		if err := ds.Insert(0, id); err != nil {
			t.Fatal(err)
		}
		ds.Close()
		re := mustOpen(t, root, id, Options{})
		if re.Text() != id {
			t.Fatalf("doc %q round trip failed", id)
		}
		re.Close()
	}
}

// TestMissingSegmentIsDamage: a hole in the live segment numbers is lost
// history on both open paths. Every commit here rotates, so each of the
// ten appended "A"s has a segment of its own; the one holding the last of
// them is removed, and nothing later depends on it. Open without
// quarantine fails naming it; with quarantine the document comes up
// quarantined on the rest, and a replica's diff repairs it whole. Both
// paths used to open such a directory healthy, one event short.
func TestMissingSegmentIsDamage(t *testing.T) {
	for _, mode := range openModes {
		t.Run(mode.name, func(t *testing.T) {
			root := t.TempDir()
			ds := mustOpen(t, root, "doc", Options{SegmentMaxBytes: 1})
			if err := ds.Insert(0, "base text "); err != nil {
				t.Fatal(err)
			}
			fork, err := ds.Doc().Fork("fork")
			if err != nil {
				t.Fatal(err)
			}
			base := fork.Version()
			if err := fork.Insert(0, "BBB"); err != nil {
				t.Fatal(err)
			}
			var lost uint64
			for range 10 {
				lost = ds.activeSeq
				if err := ds.Insert(ds.Len(), "A"); err != nil {
					t.Fatal(err)
				}
			}
			branch, err := fork.EventsSince(base)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ds.Apply(branch); err != nil {
				t.Fatal(err)
			}
			replica := egwalker.NewDoc("replica")
			if _, err := replica.Apply(ds.Events()); err != nil {
				t.Fatal(err)
			}
			ds.Close()
			if err := os.Remove(filepath.Join(root, "doc", segName(lost))); err != nil {
				t.Fatal(err)
			}
			want := "BBBbase text AAAAAAAAAA"
			if replica.Text() != want || replica.NumEvents() != 23 {
				t.Fatalf("built %q (%d events), want %q (23)", replica.Text(), replica.NumEvents(), want)
			}

			if re, err := mode.open(root, "doc", "tester", Options{}); err == nil {
				n, text := re.NumEvents(), re.Text()
				re.Close()
				t.Fatalf("opened with %d events reading %q and no error", n, text)
			} else if !strings.Contains(err.Error(), segName(lost)) {
				t.Fatalf("%v, want %s named", err, segName(lost))
			}

			re, err := mode.open(root, "doc", "tester", Options{Quarantine: true})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if q, why := re.Quarantined(); !q || !strings.Contains(why.Error(), segName(lost)) {
				t.Fatalf("quarantined %v (%v), want quarantined naming %s", q, why, segName(lost))
			}
			if re.NumEvents() != 22 || re.Text() != "BBBbase text AAAAAAAAA" {
				t.Fatalf("salvaged %d events reading %q, want 22 and every A but the lost one", re.NumEvents(), re.Text())
			}
			sum, err := re.Summary()
			if err != nil {
				t.Fatal(err)
			}
			diff, err := replica.EventsSinceSummary(sum)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := re.Repair(diff); err != nil {
				t.Fatal(err)
			}
			if q, _ := re.Quarantined(); q || re.Text() != want || re.NumEvents() != 23 {
				t.Fatalf("repaired: %d events reading %q, quarantined %v; want %q", re.NumEvents(), re.Text(), q, want)
			}
		})
	}
}

// TestLegacySnapshotOpens: a store directory whose snapshot is a legacy
// EGW1 file, which nothing writes any more, plus a WAL segment with one
// more edit. Both open paths read it — the lazy one by materializing,
// since only the full decoder reads EGW1 — to the file's EGC2 twin plus
// the edit. It is never block-served (a peer takes only compact frames
// verbatim), so a cold join gets a decoded catch-up; once Compact has
// written an EGC2 snapshot in its place, OpenLazy comes up journal-only
// and block-serves it.
func TestLegacySnapshotOpens(t *testing.T) {
	twinFile, err := os.ReadFile("../testdata/egw1/twin.egc")
	if err != nil {
		t.Fatal(err)
	}
	twin, err := egwalker.Load(bytes.NewReader(twinFile), "editor")
	if err != nil {
		t.Fatal(err)
	}
	v := twin.Version()
	if err := twin.Insert(twin.Len(), "!"); err != nil {
		t.Fatal(err)
	}
	edit, err := twin.EventsSince(v)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := encodeBlocks(edit)
	if err != nil {
		t.Fatal(err)
	}
	seg := slices.Concat(append([][]byte{segMagic[:], {segVersion}}, blocks...)...)
	for _, name := range []string{"plain", "cached", "compressed"} {
		legacy, err := os.ReadFile(filepath.Join("../testdata/egw1", name+".egw"))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range openModes {
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				root := t.TempDir()
				dir := filepath.Join(root, "doc")
				if err := os.MkdirAll(dir, 0o777); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, snapName(1)), legacy, 0o666); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o666); err != nil {
					t.Fatal(err)
				}
				ds, err := mode.open(root, "doc", "tester", Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !ds.loadState().inMemory() {
					t.Error("came up journal-only on an EGW1 snapshot")
				}
				if ds.Text() != twin.Text() || ds.NumEvents() != twin.NumEvents() {
					t.Fatalf("%d events reading %q, want %d reading %q", ds.NumEvents(), ds.Text(), twin.NumEvents(), twin.Text())
				}
				if _, ok := ds.CutForServe(); ok {
					t.Error("offered an EGW1 snapshot for block serving")
				}
				if err := ds.Compact(); err != nil {
					t.Fatal(err)
				}
				ds.Close()

				re, err := OpenLazy(root, "doc", "tester", Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if re.loadState().inMemory() {
					t.Error("after Compact, OpenLazy materialized")
				}
				if _, ok := re.CutForServe(); !ok {
					t.Error("after Compact, the snapshot is not block-servable")
				}
				if re.Text() != twin.Text() {
					t.Fatalf("after Compact, reads %q, want %q", re.Text(), twin.Text())
				}
			})
		}
	}
}
