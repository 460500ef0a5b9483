package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
	if ds.UnsnapshottedEvents() >= 50 {
		t.Fatalf("auto snapshot never fired: %d unsnapshotted", ds.UnsnapshottedEvents())
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
// point — every committed-and-intact frame survives, nothing else.
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

		re, err := Open(root, "kill", "tester", Options{})
		if err != nil {
			t.Fatalf("round %d kill %d: reopen: %v", round, kill, err)
		}
		if got := re.Text(); got != want {
			t.Fatalf("round %d kill %d: recovered %q, want %q", round, kill, got, want)
		}
		// Recovery must leave a writable store.
		if err := re.Insert(0, "x"); err != nil {
			t.Fatalf("round %d: store dead after recovery: %v", round, err)
		}
		re.Close()
	}
}

// TestBitFlipRecovery: a single flipped byte anywhere past the segment
// header must never produce silently wrong text — recovery yields some
// sync-boundary prefix of the history (the checksum catches the damage
// and the tail is dropped).
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

		re, err := Open(root, "flip", "tester", Options{})
		if err != nil {
			t.Fatalf("round %d flip@%d: reopen: %v", round, at, err)
		}
		got := re.Text()
		re.Close()
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
// WAL replay.
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

	re := mustOpen(t, root, "snapfall", Options{})
	defer re.Close()
	if got := re.Text(); got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
	if re.Recovery().SkippedSnapshots != 1 {
		t.Fatalf("SkippedSnapshots = %d, want 1", re.Recovery().SkippedSnapshots)
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
	blocks, err := encodeBlocks(evs, false)
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
