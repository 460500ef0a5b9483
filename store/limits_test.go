package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"egwalker"
)

// openModes are the two ways a document comes up: materialized, and
// journal-only where the scan can vouch for the disk.
var openModes = []struct {
	name string
	open func(root, docID, agent string, opts Options) (*DocStore, error)
}{{"Open", Open}, {"OpenLazy", OpenLazy}}

// TestIngestRefusesWhatNoSnapshotHolds: an upload whose seq or position
// passes what a file holds (2^31-1) is refused, in the legacy encoding
// and decoded, on a materialized document and a journal-only one, and
// the document stays what it was through a snapshot, a compaction and a
// reopen. IngestBatch used to take a legacy-encoded event with seq 2^40
// into a document holding "hello"; Snapshot then wrote a file Load
// refuses, and after Compact both open paths came back with 0 events, not
// quarantined.
func TestIngestRefusesWhatNoSnapshotHolds(t *testing.T) {
	bad := []egwalker.Event{
		{ID: egwalker.EventID{Agent: "q", Seq: 1 << 40}, Insert: true, Content: 'y'},
		{ID: egwalker.EventID{Agent: "q", Seq: 1<<31 - 1}, Insert: true, Content: 'y'},
		{ID: egwalker.EventID{Agent: "q", Seq: 0}, Insert: true, Pos: 1<<31 - 1, Content: 'y'},
		{ID: egwalker.EventID{Agent: "q", Seq: 0}, Pos: 1 << 31},
	}
	for _, mode := range openModes {
		t.Run(mode.name, func(t *testing.T) {
			root := t.TempDir()
			ds := mustOpen(t, root, "doc", Options{})
			if err := ds.Insert(0, "hello"); err != nil {
				t.Fatal(err)
			}
			ds.Close()
			open := func() *DocStore {
				t.Helper()
				ds, err := mode.open(root, "doc", "tester", Options{Quarantine: true})
				if err != nil {
					t.Fatal(err)
				}
				return ds
			}
			ds = open()
			for _, ev := range bad {
				raw, err := egwalker.MarshalEvents([]egwalker.Event{ev})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ds.IngestBatch(nil, raw); err == nil || !strings.Contains(err.Error(), "2147483647") {
					t.Errorf("%v, legacy-encoded: %v, want the limit named", ev, err)
				}
				if _, err := ds.IngestBatch([]egwalker.Event{ev}, nil); err == nil || !strings.Contains(err.Error(), "2147483647") {
					t.Errorf("%v, decoded: %v, want the limit named", ev, err)
				}
			}
			if err := ds.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := ds.Compact(); err != nil {
				t.Fatal(err)
			}
			ds.Close()
			re := open()
			defer re.Close()
			if q, why := re.Quarantined(); q || re.Text() != "hello" || re.NumEvents() != 5 {
				t.Fatalf("reopened with %d events reading %q, quarantined %v (%v); want \"hello\"", re.NumEvents(), re.Text(), q, why)
			}
		})
	}
}

// TestUnreadableSoleSnapshotIsDamage: once a compaction has removed the
// segments a snapshot holds, a snapshot that does not load is lost
// history. Open without quarantine fails, and with it comes up
// quarantined, naming the snapshot, on both open paths; both used to
// serve an empty document as if nothing had been written. While the WAL
// still reaches back to its first segment, the same damage recovers.
func TestUnreadableSoleSnapshotIsDamage(t *testing.T) {
	for _, mode := range openModes {
		for _, compact := range []bool{true, false} {
			root := t.TempDir()
			ds := mustOpen(t, root, "doc", Options{})
			if err := ds.Insert(0, "hello"); err != nil {
				t.Fatal(err)
			}
			snap := ds.Snapshot
			if compact {
				snap = ds.Compact
			}
			if err := snap(); err != nil {
				t.Fatal(err)
			}
			name := snapName(ds.snapSeq)
			path := filepath.Join(ds.dir, name)
			ds.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x10
			if err := os.WriteFile(path, data, 0o666); err != nil {
				t.Fatal(err)
			}

			if !compact {
				re, err := mode.open(root, "doc", "tester", Options{Quarantine: true})
				if err != nil {
					t.Fatal(err)
				}
				if q, why := re.Quarantined(); q || re.Text() != "hello" {
					t.Errorf("%s, WAL from segment 1 kept: %q, quarantined %v (%v); want \"hello\"", mode.name, re.Text(), q, why)
				}
				re.Close()
				continue
			}
			if re, err := mode.open(root, "doc", "tester", Options{}); err == nil {
				re.Close()
				t.Errorf("%s: opened with %d events and no error", mode.name, re.NumEvents())
			} else if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: %v, want %s named", mode.name, err, name)
			}
			re, err := mode.open(root, "doc", "tester", Options{Quarantine: true})
			if err != nil {
				t.Fatal(err)
			}
			if q, why := re.Quarantined(); !q || !strings.Contains(why.Error(), name) {
				t.Errorf("%s: quarantined %v (%v), want quarantined naming %s", mode.name, q, why, name)
			}
			re.Close()
		}
	}
}
