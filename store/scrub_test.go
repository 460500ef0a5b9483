package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"egwalker"
	"egwalker/internal/fsys"
)

// fillSegments writes enough small edits through ds to seal at least
// two WAL segments, returning the final text.
func fillSegments(t *testing.T, ds *DocStore, n int) string {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := ds.Insert(ds.Len(), fmt.Sprintf("line %d\n", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}
	return ds.Text()
}

func TestScrubCleanPass(t *testing.T) {
	root := t.TempDir()
	ds := mustOpen(t, root, "clean", Options{SegmentMaxBytes: 1 << 10})
	defer ds.Close()
	fillSegments(t, ds, 100)
	rep, err := ds.scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damage) != 0 {
		t.Fatalf("clean store scrubbed dirty: %+v", rep.Damage)
	}
	if rep.Segments < 2 || rep.Bytes == 0 {
		t.Fatalf("scrub covered %d segments / %d bytes, want >= 2 segments", rep.Segments, rep.Bytes)
	}
	if q, _ := ds.Quarantined(); q {
		t.Fatal("clean scrub quarantined the store")
	}
}

// TestScrubMidSegmentQuarantineAndRepair is the heart of the tentpole
// at DocStore level: a bit flip in a sealed segment is found by the
// scrubber (not by a reopen), the document degrades to read-only
// quarantine with its full in-memory state still serving, and Repair
// swaps in a rebuilt directory that survives a cold reopen.
func TestScrubMidSegmentQuarantineAndRepair(t *testing.T) {
	root := t.TempDir()
	fs := fsys.NewFaultFS(nil)
	ds := mustOpen(t, root, "victim", Options{SegmentMaxBytes: 1 << 10, FS: fs, Quarantine: true})
	defer ds.Close()
	want := fillSegments(t, ds, 100)

	segs, err := filepath.Glob(filepath.Join(root, "victim", "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d (%v)", len(segs), err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	fs.FlipBit(segs[0], fi.Size()/2, 0x40)

	rep, err := ds.scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damage) != 1 || rep.Damage[0].Kind != damageMidSegment {
		t.Fatalf("damage = %+v, want one mid-segment finding", rep.Damage)
	}
	q, reason := ds.Quarantined()
	if !q {
		t.Fatal("scrub found damage but did not quarantine")
	}
	if !errors.Is(ds.Insert(0, "x"), ErrQuarantined) {
		t.Fatal("quarantined store accepted a write")
	}
	if ds.Text() != want {
		t.Fatalf("quarantined read lost data: %q", ds.Text())
	}
	if _, ok := ds.CutForServe(); ok {
		t.Fatal("quarantined store offered a block cut off the damaged disk")
	}
	t.Logf("quarantine reason: %v", reason)

	// The scrubber caught it live: memory holds everything, so repair
	// needs no replica diff and loses nothing.
	fs.Clear()
	info, err := ds.Repair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Salvaged != len([]rune(want)) || info.Fetched != 0 {
		t.Fatalf("repair info %+v, want all %d events salvaged from memory", info, len(want))
	}
	if q, _ := ds.Quarantined(); q {
		t.Fatal("still quarantined after repair")
	}
	if err := ds.Insert(ds.Len(), "back\n"); err != nil {
		t.Fatalf("repaired store refused a write: %v", err)
	}
	want = ds.Text()

	// Forensics: the damaged tree is kept aside, and the rebuilt
	// directory must recover cold.
	if _, err := os.Stat(filepath.Join(root, ".corrupt-victim")); err != nil {
		t.Fatalf("damaged tree not kept aside: %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, root, "victim", Options{FS: fs, Quarantine: true})
	defer re.Close()
	if q, reason := re.Quarantined(); q {
		t.Fatalf("rebuilt store quarantined on reopen: %v", reason)
	}
	if re.Text() != want {
		t.Fatalf("rebuilt store recovered %q, want %q", re.Text(), want)
	}
}

// TestServerOpenQuarantineCountsCorruptBlocks: damage discovered when a
// server opens a document (rather than by a scrub pass) still lands in
// corrupt_blocks — and exactly once, even if the quarantined document
// is reopened before repair.
func TestServerOpenQuarantineCountsCorruptBlocks(t *testing.T) {
	root := t.TempDir()
	fs := fsys.NewFaultFS(nil)
	srv, err := NewServer(root, ServerOptions{DocOptions: Options{SegmentMaxBytes: 1 << 10, FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	err = srv.With("doc-o", func(ds *DocStore) error {
		fillSegments(t, ds, 100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	segs := segPaths(t, root, "doc-o")
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(segs))
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	fs.FlipBit(segs[0], fi.Size()/2, 0x40)

	re, err := NewServer(root, ServerOptions{DocOptions: Options{SegmentMaxBytes: 1 << 10, FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.With("doc-o", func(ds *DocStore) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !re.IsQuarantined("doc-o") || re.MetricsSnapshot().QuarantinedDocs != 1 {
		t.Fatal("open onto damaged disk did not quarantine")
	}
	first := re.MetricsSnapshot().CorruptBlocks
	if first < 1 {
		t.Fatalf("corrupt_blocks = %d after open-time quarantine, want >= 1", first)
	}
	// Force a close + reopen of the still-quarantined document: the same
	// damage is re-salvaged but must not be re-counted.
	re.mu.Lock()
	e, ok := re.open["doc-o"]
	if ok {
		re.closingLocked(e)
	}
	re.mu.Unlock()
	if !ok {
		t.Fatal("doc-o not open")
	}
	re.applyEvictions(nil, []*entry{e})
	if err := re.With("doc-o", func(ds *DocStore) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := re.MetricsSnapshot().CorruptBlocks; n != first {
		t.Fatalf("corrupt_blocks %d -> %d across quarantined reopen (double count)", first, n)
	}
}

// TestOpenQuarantineSalvageAndReplicaRepair is the cold-start path: the
// process restarts onto a damaged disk, comes up quarantined serving
// the salvageable prefix, and a replica's exact summary diff restores
// the rest.
func TestOpenQuarantineSalvageAndReplicaRepair(t *testing.T) {
	root := t.TempDir()
	fs := fsys.NewFaultFS(nil)
	ds := mustOpen(t, root, "cold", Options{SegmentMaxBytes: 1 << 10, FS: fs})
	want := fillSegments(t, ds, 100)
	wantEvents := ds.NumEvents()

	// A healthy "replica": same history, independent store.
	peer := mustOpen(t, t.TempDir(), "cold", Options{})
	defer peer.Close()
	all, err := ds.EventsSinceSummary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Apply(all); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(root, "cold", "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(segs))
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	fs.FlipBit(segs[0], fi.Size()/2, 0x40)

	re := mustOpen(t, root, "cold", Options{SegmentMaxBytes: 1 << 10, FS: fs, Quarantine: true})
	defer re.Close()
	q, _ := re.Quarantined()
	if !q {
		t.Fatal("reopen on damaged sealed segment did not quarantine")
	}
	sal := re.Salvage()
	if sal.Events >= wantEvents || sal.CorruptBlocks == 0 {
		t.Fatalf("salvage %+v, want a strict prefix with damage counted", sal)
	}
	if re.NumEvents() != sal.Events {
		t.Fatalf("serving %d events, salvage says %d", re.NumEvents(), sal.Events)
	}

	sum, err := re.Summary()
	if err != nil {
		t.Fatal(err)
	}
	diff, err := peer.EventsSinceSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	fs.Clear()
	info, err := re.Repair(diff)
	if err != nil {
		t.Fatal(err)
	}
	if info.Events != wantEvents || info.Fetched == 0 {
		t.Fatalf("repair info %+v, want %d events with a non-empty fetch", info, wantEvents)
	}
	if re.Text() != want {
		t.Fatalf("repaired text %q, want %q", re.Text(), want)
	}
	fpA, _ := re.Fingerprint()
	fpB, _ := peer.Fingerprint()
	if fpA != fpB {
		t.Fatalf("fingerprints diverge after repair: %#x vs %#x", fpA, fpB)
	}
}

// TestScrubClassifiesTornTailAndSnapshot: damage inside the active
// segment's fsynced prefix is torn-tail (silently truncatable at
// reopen — acked loss — which is why scrub must catch it); a snapshot
// that stops decoding is snapshot damage.
func TestScrubClassifiesTornTailAndSnapshot(t *testing.T) {
	t.Run("torn-tail", func(t *testing.T) {
		root := t.TempDir()
		fs := fsys.NewFaultFS(nil)
		ds := mustOpen(t, root, "tail", Options{FS: fs}) // big segments: all writes in the active one
		defer ds.Close()
		fillSegments(t, ds, 20)
		seg := filepath.Join(root, "tail", segName(1))
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		fs.FlipBit(seg, fi.Size()/2, 0x20)
		rep, err := ds.scrub(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Damage) != 1 || rep.Damage[0].Kind != damageTornTail {
			t.Fatalf("damage = %+v, want one torn-tail finding", rep.Damage)
		}
		if q, _ := ds.Quarantined(); !q {
			t.Fatal("torn-tail damage (acked data at risk) did not quarantine")
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		root := t.TempDir()
		fs := fsys.NewFaultFS(nil)
		ds := mustOpen(t, root, "snap", Options{FS: fs})
		defer ds.Close()
		fillSegments(t, ds, 20)
		if err := ds.Snapshot(); err != nil {
			t.Fatal(err)
		}
		snaps, _ := filepath.Glob(filepath.Join(root, "snap", "snap-*.egw"))
		if len(snaps) != 1 {
			t.Fatalf("want one snapshot, got %v", snaps)
		}
		fs.FlipBit(snaps[0], 0, 0xff) // break the envelope, not just content
		rep, err := ds.scrub(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Damage) != 1 || rep.Damage[0].Kind != damageSnapshot {
			t.Fatalf("damage = %+v, want one snapshot finding", rep.Damage)
		}
		if q, _ := ds.Quarantined(); !q {
			t.Fatal("snapshot damage did not quarantine")
		}
	})
}

// TestScrubMissingFileQuarantines: a segment the layout still relies
// on vanishing out from under the store is damage, not a compaction
// race — the liveness recheck distinguishes the two.
func TestScrubMissingFile(t *testing.T) {
	root := t.TempDir()
	fs := fsys.NewFaultFS(nil)
	ds := mustOpen(t, root, "gone", Options{SegmentMaxBytes: 1 << 10, FS: fs})
	defer ds.Close()
	fillSegments(t, ds, 100)
	segs, _ := filepath.Glob(filepath.Join(root, "gone", "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(segs))
	}
	fs.FailRead(segs[0], os.ErrNotExist)
	rep, err := ds.scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damage) != 1 || rep.Damage[0].Kind != damageMissing {
		t.Fatalf("damage = %+v, want one missing-file finding", rep.Damage)
	}
	if q, _ := ds.Quarantined(); !q {
		t.Fatal("missing live segment did not quarantine")
	}
}

func TestScrubLimiterPacesReads(t *testing.T) {
	lim := newScrubLimiter(1 << 20) // 1 MiB/s
	start := time.Now()
	lim.wait(256 << 10) // 256 KiB of debt => ~250ms
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("limiter admitted 256KiB at 1MiB/s in %v", d)
	}
	// nil limiter and zero rate are unlimited.
	var nilLim *scrubLimiter
	nilLim.wait(1 << 30)
	newScrubLimiter(0).wait(1 << 30)
}

// TestServerScrubberQuarantinesAndRepairs drives the server-level
// loop: scrubPass finds the damage, the document lands in the
// quarantine set with its metrics, and RepairDoc (with a fetch closure
// standing in for the cluster's replica pull) re-admits it.
func TestServerScrubberQuarantinesAndRepairs(t *testing.T) {
	root := t.TempDir()
	fs := fsys.NewFaultFS(nil)
	var qmu sync.Mutex
	var quarantined []string
	srv, err := NewServer(root, ServerOptions{
		DocOptions: Options{SegmentMaxBytes: 1 << 10, FS: fs},
		OnQuarantine: func(docID string, reason error) {
			qmu.Lock()
			quarantined = append(quarantined, docID)
			qmu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var want string
	err = srv.With("doc-a", func(ds *DocStore) error {
		want = fillSegments(t, ds, 100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A healthy twin to pull the repair diff from.
	peer := mustOpen(t, t.TempDir(), "doc-a", Options{})
	defer peer.Close()
	err = srv.With("doc-a", func(ds *DocStore) error {
		all, err := ds.EventsSinceSummary(nil)
		if err != nil {
			return err
		}
		_, err = peer.Apply(all)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(root, "doc-a", "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(segs))
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	fs.FlipBit(segs[0], fi.Size()/2, 0x40)

	srv.scrubPass(nil)
	if !srv.IsQuarantined("doc-a") {
		t.Fatal("scrubPass did not quarantine doc-a")
	}
	m := srv.MetricsSnapshot()
	if m.ScrubPasses != 1 || m.CorruptBlocks == 0 || m.QuarantinedDocs != 1 {
		t.Fatalf("metrics after scrub: passes=%d corrupt=%d quarantined=%d",
			m.ScrubPasses, m.CorruptBlocks, m.QuarantinedDocs)
	}
	if ids := srv.QuarantinedDocIDs(); len(ids) != 1 || ids[0] != "doc-a" {
		t.Fatalf("QuarantinedDocIDs = %v", ids)
	}
	qmu.Lock()
	sawCallback := len(quarantined) > 0 && quarantined[0] == "doc-a"
	qmu.Unlock()
	if !sawCallback {
		t.Fatal("OnQuarantine callback did not fire for doc-a")
	}

	fs.Clear()
	info, err := srv.RepairDoc("doc-a", func(sum egwalker.VersionSummary) ([]egwalker.Event, error) {
		return peer.EventsSinceSummary(sum)
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Events != len([]rune(want)) {
		t.Fatalf("repair info %+v, want %d events", info, len(want))
	}
	if srv.IsQuarantined("doc-a") {
		t.Fatal("doc-a still quarantined after RepairDoc")
	}
	m = srv.MetricsSnapshot()
	if m.Repairs != 1 || m.QuarantinedDocs != 0 {
		t.Fatalf("metrics after repair: repairs=%d quarantined=%d", m.Repairs, m.QuarantinedDocs)
	}
	// And the repaired document serves writes again.
	err = srv.With("doc-a", func(ds *DocStore) error { return ds.Insert(0, "x") })
	if err != nil {
		t.Fatal(err)
	}
	// A second scrub over the rebuilt directory finds nothing.
	srv.scrubPass(nil)
	if n := srv.QuarantinedCount(); n != 0 {
		t.Fatalf("rebuilt doc re-quarantined: %d", n)
	}
}

// TestSalvageCountsAMissingSegment: a live WAL segment gone from the
// directory is a lost block in the salvage report, as an unreadable one
// is. Every commit rotates, so "base ", "A" and "B" each have a segment;
// the one of "A" is removed. When "B" was typed after "A" it is dropped
// too; when "B" came from a replica that never saw "A", it applies, and
// the missing segment is the only loss there is to report. Salvage used
// to count the dropped event alone, and no loss at all in the second
// case.
func TestSalvageCountsAMissingSegment(t *testing.T) {
	for _, needed := range []bool{true, false} {
		for _, mode := range openModes {
			t.Run(fmt.Sprintf("needed=%v/%s", needed, mode.name), func(t *testing.T) {
				root := t.TempDir()
				ds := mustOpen(t, root, "doc", Options{SegmentMaxBytes: 1})
				if err := ds.Insert(0, "base "); err != nil {
					t.Fatal(err)
				}
				other, err := ds.Doc().Fork("other")
				if err != nil {
					t.Fatal(err)
				}
				lost := ds.activeSeq
				if err := ds.Insert(ds.Len(), "A"); err != nil {
					t.Fatal(err)
				}
				if needed {
					err = ds.Insert(ds.Len(), "B")
				} else if err = other.Insert(other.Len(), "B"); err == nil {
					_, err = ds.Apply(other.Events()[5:])
				}
				if err != nil {
					t.Fatal(err)
				}
				ds.Close()
				if err := os.Remove(filepath.Join(root, "doc", segName(lost))); err != nil {
					t.Fatal(err)
				}
				re, err := mode.open(root, "doc", "tester", Options{Quarantine: true})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if q, _ := re.Quarantined(); !q {
					t.Fatal("not quarantined")
				}
				want := SalvageInfo{Events: 5, CorruptBlocks: 1, DroppedEvents: 1}
				if !needed {
					want = SalvageInfo{Events: 6, CorruptBlocks: 1}
				}
				if got := re.Salvage(); got != want {
					t.Fatalf("salvage %+v, want %+v", got, want)
				}
			})
		}
	}
}
