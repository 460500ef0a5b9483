package store

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"egwalker"
	"egwalker/internal/fsys"
)

// flipSyncedTail flips a bit on disk 8 bytes before the end of the synced
// part of ds's active segment — bit rot inside its last synced block, where
// an open would take it for a torn write — and returns the segment's path
// and its damaged bytes.
func flipSyncedTail(t *testing.T, ds *DocStore) (string, []byte) {
	t.Helper()
	ds.mu.Lock()
	path, synced := filepath.Join(ds.dir, segName(ds.activeSeq)), ds.syncedSize
	ds.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != synced {
		t.Fatalf("setup: %d of the segment's %d bytes synced", synced, len(data))
	}
	data[synced-8] ^= 0x01
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// eventsOnDisk counts the events of the WAL segments in dir, with the bit
// flipSyncedTail flipped in path set right again.
func eventsOnDisk(t *testing.T, dir, path string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if seg == path {
			data[len(data)-8] ^= 0x01
		}
		w, err := replayBlocks(data, func(evs []egwalker.Event) error { n += len(evs); return nil })
		if err != nil || w.tail != nil {
			t.Fatalf("%s: %v %v", seg, err, w.tail)
		}
	}
	return n
}

// TestScrubQuarantineSurvivesClose: a store a scrub quarantined over damage
// in its synced active segment opens quarantined again after a close, with
// the segment as it was: nothing cut off as a torn tail.
func TestScrubQuarantineSurvivesClose(t *testing.T) {
	root := t.TempDir()
	opts := Options{Quarantine: true}
	ds, err := OpenLazy(root, "q", "srv", opts)
	if err != nil {
		t.Fatal(err)
	}
	w := egwalker.NewDoc("w")
	for i := 0; i < 15; i++ {
		if _, err := ds.IngestBatch(typeInto(t, w, 10), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}
	path, damaged := flipSyncedTail(t, ds)
	rep, err := ds.scrub(nil)
	if err != nil || len(rep.Damage) == 0 {
		t.Fatalf("scrub: %v, damage %v", err, rep.Damage)
	}
	if q, _ := ds.Quarantined(); !q {
		t.Fatal("scrub did not quarantine the store")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err = OpenLazy(root, "q", "srv", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if q, why := ds.Quarantined(); !q {
		t.Fatalf("reopened store is not quarantined (recovery %+v)", ds.Recovery())
	} else {
		t.Logf("reopened quarantined: %v", why)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, damaged) {
		t.Fatalf("the reopen changed the damaged segment (%d bytes, were %d): %v", len(data), len(damaged), err)
	}
	if n := eventsOnDisk(t, filepath.Dir(path), path); n != 150 {
		t.Fatalf("%d events left on disk, want 150", n)
	}
}

// TestQuarantineSurvivesEviction: the same damage found by a server's scrub
// pass; the LRU closes the quarantined document, and a repair after it
// still finds it quarantined and rebuilds it, without a marker.
func TestQuarantineSurvivesEviction(t *testing.T) {
	srv := newTestServer(t, ServerOptions{MaxOpenDocs: 1, MaxJournalDocs: 1, FlushInterval: time.Hour})
	const docID = "q"
	w := egwalker.NewDoc("w")
	for i := 0; i < 15; i++ {
		if err := srv.Append(docID, typeInto(t, w, 10)); err != nil {
			t.Fatal(err)
		}
	}
	var dir string
	err := srv.With(docID, func(ds *DocStore) error {
		dir = ds.dir
		if err := ds.Sync(); err != nil {
			return err
		}
		flipSyncedTail(t, ds)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.scrubPass(nil)
	if !srv.IsQuarantined(docID) {
		t.Fatal("scrubPass did not quarantine the document")
	}

	if err := srv.Append("other", typeInto(t, egwalker.NewDoc("o"), 5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		_, open := srv.open[docID]
		srv.mu.Unlock()
		if !open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the quarantined document was never evicted")
		}
		time.Sleep(time.Millisecond)
	}

	info, err := srv.RepairDoc(docID, func(sum egwalker.VersionSummary) ([]egwalker.Event, error) {
		return w.EventsSinceSummary(sum)
	})
	if err != nil {
		t.Fatalf("repair after the eviction: %v", err)
	}
	if info.Events != 150 {
		t.Fatalf("repaired document holds %d events, want 150", info.Events)
	}
	text, err := srv.Text(docID)
	if err != nil || text != w.Text() {
		t.Fatalf("repaired text differs: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineMarker)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the rebuilt directory carries a quarantine marker: %v", err)
	}
}

// TestIOErrorQuarantineEndsWithTheStore: an open that fails on an I/O
// error, not on damage — a segment header that cannot be written, a
// segment that cannot be read — comes up quarantined but leaves no
// marker, so once the fault is gone the next open is healthy and holds
// everything it held before.
func TestIOErrorQuarantineEndsWithTheStore(t *testing.T) {
	errIO := errors.New("injected I/O error")
	for _, c := range []struct {
		name   string
		events int
		arm    func(f *fsys.FaultFS, dir string)
	}{
		{"create active segment", 0, func(f *fsys.FaultFS, _ string) { f.FailWrites(0, errIO) }},
		{"read segment", 40, func(f *fsys.FaultFS, dir string) { f.FailRead(filepath.Join(dir, segName(1)), errIO) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			faults := fsys.NewFaultFS(nil)
			opts := Options{FS: faults, Quarantine: true}
			ds, err := OpenLazy(root, "q", "srv", opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := ds.dir
			w := egwalker.NewDoc("w")
			for i := 0; i < c.events/10; i++ {
				if _, err := ds.IngestBatch(typeInto(t, w, 10), nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			if c.events == 0 {
				// A fresh directory: the open must create its first segment.
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
			}

			c.arm(faults, dir)
			ds, err = OpenLazy(root, "q", "srv", opts)
			if err != nil {
				t.Fatal(err)
			}
			if q, _ := ds.Quarantined(); !q {
				t.Fatal("the open met the fault and is not quarantined")
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineMarker)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("an I/O error left a quarantine marker: %v", err)
			}

			faults.Clear()
			ds, err = OpenLazy(root, "q", "srv", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if q, why := ds.Quarantined(); q {
				t.Fatalf("reopened without the fault, still quarantined: %v", why)
			}
			if n := ds.NumEvents(); n != c.events {
				t.Fatalf("reopened with %d events, want %d", n, c.events)
			}
			if _, err := ds.IngestBatch(typeInto(t, w, 10), nil); err != nil {
				t.Fatalf("the reopened store refuses an upload: %v", err)
			}
		})
	}
}
