package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"egwalker/internal/fsys"
)

// segPaths lists a document's WAL segment files in sequence order.
func segPaths(t *testing.T, root, doc string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(root, doc, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

// TestWALAppendENOSPC: a failed WAL append (the shape a full disk
// takes: partial write, then the error) must degrade the document to
// read-only — the error surfaces to the writer, sticks for later
// writers, never crashes the process, and everything already synced
// survives a restart.
func TestWALAppendENOSPC(t *testing.T) {
	root := t.TempDir()
	fs := fsys.NewFaultFS(nil)
	ds := mustOpen(t, root, "full", Options{FS: fs})
	for i := 0; i < 20; i++ {
		if err := ds.Insert(ds.Len(), fmt.Sprintf("line %d\n", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}
	want := ds.Text()

	enospc := errors.New("no space left on device")
	fs.FailWrites(3, enospc) // a few bytes trickle out, then the disk is full
	err := ds.Insert(0, "doomed")
	if !errors.Is(err, enospc) {
		t.Fatalf("append on full disk: got %v, want ENOSPC", err)
	}
	// The error is sticky: the WAL tail is suspect, so later writes
	// refuse without touching the disk again.
	if err := ds.Insert(0, "also doomed"); err == nil {
		t.Fatal("write accepted after a WAL write error")
	}
	// Reads keep working off memory...
	if ds.Text() == "" {
		t.Fatal("degraded store lost its readable state")
	}
	// ...but the store neither block-serves its suspect tail nor
	// bothers scrubbing a document already known to be sick.
	if _, ok := ds.CutForServe(); ok {
		t.Fatal("degraded store offered a block cut")
	}
	if rep, err := ds.scrub(nil); err != nil || rep.Segments != 0 {
		t.Fatalf("scrub of degraded store ran anyway: %+v, %v", rep, err)
	}

	// Restart on a healthy disk: everything synced before the fault is
	// intact; the partial append is a torn tail, truncated away.
	fs.Clear()
	ds.Close() // the final sync may fail; recovery below is the check
	re := mustOpen(t, root, "full", Options{FS: fs})
	defer re.Close()
	if re.Text() != want {
		t.Fatalf("recovered %q, want %q", re.Text(), want)
	}
	if err := re.Insert(0, "healthy again. "); err != nil {
		t.Fatal(err)
	}
}

// TestServerWALWriteErrorMetric: the server surfaces degraded
// documents through the wal_write_errors counter, which the store counts
// through the server's metrics, and keeps serving reads.
func TestServerWALWriteErrorMetric(t *testing.T) {
	root := t.TempDir()
	fs := fsys.NewFaultFS(nil)
	srv, err := NewServer(root, ServerOptions{DocOptions: Options{FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	err = srv.With("doc", func(ds *DocStore) error { return ds.Insert(0, "hello") })
	if err != nil {
		t.Fatal(err)
	}
	enospc := errors.New("no space left on device")
	fs.FailWrites(0, enospc)
	err = srv.With("doc", func(ds *DocStore) error { return ds.Insert(0, "x") })
	if !errors.Is(err, enospc) {
		t.Fatalf("got %v, want ENOSPC through the server", err)
	}
	if n := srv.MetricsSnapshot().WALWriteErrors; n != 1 {
		t.Fatalf("wal_write_errors = %d, want 1", n)
	}
	// Reads still served (the store applies before journaling, so the
	// failed write is visible in memory even though the client was told
	// it did not persist).
	err = srv.With("doc", func(ds *DocStore) error {
		if ds.Text() != "xhello" {
			return fmt.Errorf("read %q", ds.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fs.Clear()
}

// TestFaultFSShortRead: a short read of a sealed segment looks like a
// torn tail mid-file; the scrubber classifies it and quarantines.
func TestFaultFSShortRead(t *testing.T) {
	root := t.TempDir()
	fs := fsys.NewFaultFS(nil)
	ds := mustOpen(t, root, "short", Options{SegmentMaxBytes: 1 << 10, FS: fs})
	defer ds.Close()
	fillSegments(t, ds, 100)
	segs := segPaths(t, root, "short")
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(segs))
	}
	fs.ShortRead(segs[0], 64)
	rep, err := ds.scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damage) != 1 || rep.Damage[0].Kind != damageMidSegment {
		t.Fatalf("damage = %+v, want one mid-segment finding", rep.Damage)
	}
	if q, _ := ds.Quarantined(); !q {
		t.Fatal("short read of sealed segment did not quarantine")
	}
}
