package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"egwalker"
	"egwalker/internal/fsys"
)

// scrubFixture builds one canonical damaged-store fixture in memory: a
// document spanning several sealed segments plus a mid-history
// snapshot (no compaction, so every file is present and salvage can
// always fall back across the layout). Returns the file set and an
// oracle doc holding the full history.
func scrubFixture(tb testing.TB) (files map[string][]byte, oracle *egwalker.Doc) {
	tb.Helper()
	root, err := os.MkdirTemp("", "scrubfix")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(root)
	ds, err := Open(root, "doc", "seed", Options{SegmentMaxBytes: 256})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := ds.Insert(ds.Len(), fmt.Sprintf("line %d\n", i)); err != nil {
			tb.Fatal(err)
		}
		if i == 20 {
			if err := ds.Snapshot(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	all, err := ds.EventsSinceSummary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		tb.Fatal(err)
	}
	oracle = egwalker.NewDoc("oracle")
	if _, err := oracle.Apply(all); err != nil {
		tb.Fatal(err)
	}
	files = make(map[string][]byte)
	ents, err := os.ReadDir(filepath.Join(root, "doc"))
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, "doc", e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files, oracle
}

// FuzzScrubSalvage: for ANY single corrupted byte anywhere in a
// document's on-disk layout, opening with quarantine enabled must (a)
// never fail or panic, (b) salvage at most the original history, and
// (c) converge back to the oracle fingerprint once the salvage is
// topped up with the oracle's exact summary diff — via Repair when the
// damage quarantined the store, via a plain Apply when it did not
// (e.g. the flip landed in the reopen-truncatable tail). The repaired
// document must also survive a cold reopen.
func FuzzScrubSalvage(f *testing.F) {
	files, oracle := scrubFixture(f)
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)

	f.Add(byte(0), uint64(0), byte(0x01))
	f.Add(byte(0), uint64(2), byte(0xff))
	f.Add(byte(1), uint64(100), byte(0x40))
	f.Add(byte(2), uint64(9), byte(0x80))
	f.Add(byte(3), uint64(1<<20), byte(0x10))
	f.Add(byte(255), uint64(31), byte(0x00))

	f.Fuzz(func(t *testing.T, fileIdx byte, off uint64, mask byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "doc")
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		target := names[int(fileIdx)%len(names)]
		fs := fsys.NewFaultFS(nil)
		size := uint64(len(files[target]))
		if size > 0 {
			fs.FlipBit(filepath.Join(dir, target), int64(off%size), mask)
		}

		ds, err := Open(root, "doc", "seed", Options{SegmentMaxBytes: 256, FS: fs, Quarantine: true})
		if err != nil {
			t.Fatalf("quarantine-enabled open failed on single-byte damage in %s: %v", target, err)
		}
		defer ds.Close()
		if ds.NumEvents() > oracle.NumEvents() {
			t.Fatalf("salvaged %d events from a %d-event history", ds.NumEvents(), oracle.NumEvents())
		}
		sum, err := ds.Summary()
		if err != nil {
			t.Fatal(err)
		}
		diff, err := oracle.EventsSinceSummary(sum)
		if err != nil {
			t.Fatal(err)
		}
		fs.Clear()
		q, _ := ds.Quarantined()
		if q {
			if _, err := ds.Repair(diff); err != nil {
				t.Fatalf("repair with exact oracle diff failed: %v", err)
			}
		} else if len(diff) > 0 {
			if _, err := ds.Apply(diff); err != nil {
				t.Fatalf("apply of exact oracle diff failed: %v", err)
			}
		}
		fp, err := ds.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != oracle.Fingerprint() || ds.Text() != oracle.Text() {
			t.Fatalf("healed store diverged from oracle (quarantined=%v, target=%s, off=%d, mask=%#x)",
				q, target, off, mask)
		}
		if err := ds.Close(); err != nil && q {
			// A repaired store must close cleanly; an undamaged one may
			// carry unsynced tail state, which Close flushes — also
			// cleanly. Either way an error here is a bug.
			t.Fatalf("close after heal: %v", err)
		}
		re, err := Open(root, "doc", "seed", Options{SegmentMaxBytes: 256, FS: fs, Quarantine: true})
		if err != nil {
			t.Fatalf("cold reopen after heal: %v", err)
		}
		defer re.Close()
		if q2, reason := re.Quarantined(); q2 {
			t.Fatalf("healed store quarantined again on reopen: %v", reason)
		}
		fp2, err := re.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp2 != oracle.Fingerprint() {
			t.Fatalf("cold reopen lost healed state (target=%s, off=%d, mask=%#x)", target, off, mask)
		}
	})
}
