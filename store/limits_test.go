package store

import (
	"bytes"
	"encoding/binary"
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
				raw := legacyBatch(ev)
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

// legacyBatch is the legacy per-event encoding (egwalker.MarshalEvents) of
// the one event ev, which has no parents, written byte by byte:
// MarshalEvents refuses the seqs and positions that the journal must be
// seen to refuse.
func legacyBatch(ev egwalker.Event) []byte {
	b := binary.AppendUvarint(nil, 1) // the agent table: one name
	b = append(binary.AppendUvarint(b, uint64(len(ev.ID.Agent))), ev.ID.Agent...)
	b = binary.AppendUvarint(b, 1) // one event: agent index, seq, no parents
	b = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, 0), uint64(ev.ID.Seq)), 0)
	if !ev.Insert {
		return binary.AppendUvarint(binary.AppendUvarint(b, 1), uint64(ev.Pos))
	}
	return binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, 0), uint64(ev.Pos)), uint64(ev.Content))
}

// TestLegacyBatchIsMarshalEvents: for events MarshalEvents writes,
// legacyBatch writes the same bytes.
func TestLegacyBatchIsMarshalEvents(t *testing.T) {
	for _, ev := range []egwalker.Event{
		{ID: egwalker.EventID{Agent: "q", Seq: 1<<31 - 2}, Insert: true, Pos: 1<<31 - 2, Content: '語'},
		{ID: egwalker.EventID{Agent: "agent", Seq: 300}, Pos: 1<<31 - 1},
	} {
		want, err := egwalker.MarshalEvents([]egwalker.Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		if got := legacyBatch(ev); !bytes.Equal(got, want) {
			t.Fatalf("%v: % x, MarshalEvents % x", ev, got, want)
		}
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

// TestPrunedFrameNeverEntersTheJournal: a pruned file is a whole document,
// not a batch. An upload of one is refused before a byte is journaled,
// and a segment block holding one does not replay.
func TestPrunedFrameNeverEntersTheJournal(t *testing.T) {
	d := egwalker.NewDoc("p")
	if err := d.Insert(0, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0, 2); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := d.Save(&file, egwalker.SaveOptions{OmitDeletedContent: true}); err != nil {
		t.Fatal(err)
	}
	pruned := file.Bytes()
	ds := mustOpen(t, t.TempDir(), "doc", Options{})
	defer ds.Close()
	if _, err := ds.IngestBatch(nil, pruned); err == nil || !strings.Contains(err.Error(), "pruned") {
		t.Fatalf("IngestBatch of a pruned file: %v", err)
	}
	if ds.NumEvents() != 0 {
		t.Fatalf("the store took %d events", ds.NumEvents())
	}
	block, err := sealBlock(pruned)
	if err != nil {
		t.Fatal(err)
	}
	seg := append(append(segMagic[:], segVersion), block...)
	batches, w, err := replayed(seg)
	if err != nil || len(batches) != 0 || w.tail == nil || !strings.Contains(w.tail.Error(), "pruned") {
		t.Fatalf("replay of a pruned block: %v, %d batches, tail %v", err, len(batches), w.tail)
	}
}

// TestSnapshotsKeepDeletedCharacters: a store's snapshots are never
// pruned: after a compaction and a reopen it still serves every
// character it was sent, deleted ones included. A pruned snapshot would
// serve placeholders, or ErrPruned, instead.
func TestSnapshotsKeepDeletedCharacters(t *testing.T) {
	root := t.TempDir()
	ds := mustOpen(t, root, "doc", Options{})
	if err := ds.Insert(0, "hello world"); err != nil {
		t.Fatal(err)
	}
	if err := ds.Delete(0, 6); err != nil {
		t.Fatal(err)
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	ds.Close()
	re := mustOpen(t, root, "doc", Options{})
	defer re.Close()
	evs, err := re.EventsSince(nil)
	if err != nil {
		t.Fatal(err)
	}
	var typed []rune
	for _, ev := range evs {
		if ev.Insert {
			typed = append(typed, ev.Content)
		}
	}
	if string(typed) != "hello world" || re.Text() != "world" {
		t.Fatalf("reopened, it serves %q typed and reads %q", string(typed), re.Text())
	}
}
