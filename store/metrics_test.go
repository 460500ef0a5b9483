package store

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"egwalker"
)

// TestServerMetricsObserveTraffic: real traffic moves every live-path
// metric, and the snapshot is JSON-marshalable (it backs the egserve
// /metrics endpoint).
func TestServerMetricsObserveTraffic(t *testing.T) {
	srv := newTestServer(t, ServerOptions{
		MaxOpenDocs:   2,
		FlushInterval: time.Millisecond,
	})
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("m-doc-%d", i)
		err := srv.With(id, func(ds *DocStore) error {
			return ds.Insert(0, "metrics payload")
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Let at least one group-commit flush land so fsync metrics move.
	deadline := time.Now().Add(5 * time.Second)
	for srv.MetricsSnapshot().FsyncNs.Count == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never recorded an fsync")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The materialized population settles under the cap asynchronously
	// (the flusher's per-interval pins can defer an eviction beat).
	for srv.MetricsSnapshot().MaterializedDocs > 2 {
		if time.Now().After(deadline) {
			t.Fatal("materialized docs never settled under the cap")
		}
		time.Sleep(2 * time.Millisecond)
	}

	m := srv.MetricsSnapshot()
	if m.ColdOpens != 6 {
		t.Errorf("cold_opens = %d, want 6", m.ColdOpens)
	}
	if m.Evictions < 4 {
		t.Errorf("evictions = %d, want >= 4 (cap 2, 6 docs)", m.Evictions)
	}
	if m.OpenDocs != 6 {
		t.Errorf("open_docs gauge = %d, want 6 (journal-only docs stay open)", m.OpenDocs)
	}
	if m.MaterializedDocs > 2 {
		t.Errorf("materialized_docs gauge = %d, above cap", m.MaterializedDocs)
	}
	if m.OpenNs.Count != m.ColdOpens || m.OpenNs.P99 <= 0 {
		t.Errorf("open_ns histogram: %+v", m.OpenNs)
	}
	if m.CommitBatchEvents.Count == 0 || m.CommitBatchEvents.Max < int64(len("metrics payload")) {
		t.Errorf("commit_batch_events: %+v", m.CommitBatchEvents)
	}

	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.ColdOpens != m.ColdOpens {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

// TestServerMetricsCountReplaySections: the replay counters of hosted
// documents reach /metrics — a section opened, continued by the next
// batch, given up when the document is dematerialized, and met again,
// block by block, when the WAL is replayed to materialize it.
func TestServerMetricsCountReplaySections(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: -1})
	base := egwalker.NewDoc("base")
	if err := base.Insert(0, "shared. "); err != nil {
		t.Fatal(err)
	}
	var branches [2][]egwalker.Event
	for i, name := range []string{"ann", "bob"} {
		d, err := base.Fork(name)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 6; k++ {
			if err := d.Insert(k%2*d.Len(), name+" "); err != nil {
				t.Fatal(err)
			}
		}
		if branches[i], err = d.EventsSince(base.Version()); err != nil {
			t.Fatal(err)
		}
	}
	ann, bob := branches[0], branches[1]
	err := srv.With("bubble", func(ds *DocStore) error {
		for _, batch := range [][]egwalker.Event{base.Events(), ann, bob[:10], bob[10:]} {
			if _, err := ds.Apply(batch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := srv.MetricsSnapshot()
	// bob's first batch opens a section at the base, replaying ann's branch
	// for the state alone; his second continues it.
	if m.SectionsRebuilt != 1 || m.SectionsContinued != 1 || m.SilentReplayEvents != int64(len(ann)) || m.RetainedTrackerItems == 0 {
		t.Fatalf("after the merges: rebuilt %d, continued %d, silent %d, retained %d; want 1, 1, %d, > 0",
			m.SectionsRebuilt, m.SectionsContinued, m.SilentReplayEvents, m.RetainedTrackerItems, len(ann))
	}
	retained := m.RetainedTrackerItems
	err = srv.With("bubble", func(ds *DocStore) error {
		if err := ds.dematerialize(); err != nil {
			return err
		}
		if got := srv.MetricsSnapshot().RetainedTrackerItems; got != 0 {
			t.Errorf("retained_tracker_items = %d after dematerializing", got)
		}
		return ds.Materialize()
	})
	if err != nil {
		t.Fatal(err)
	}
	// The journal holds the four batches; replaying them is the same story.
	m = srv.MetricsSnapshot()
	if m.SectionsRebuilt != 2 || m.SectionsContinued != 2 || m.RetainedTrackerItems != retained {
		t.Fatalf("after materializing again: rebuilt %d, continued %d, retained %d; want 2, 2, %d",
			m.SectionsRebuilt, m.SectionsContinued, m.RetainedTrackerItems, retained)
	}
	srv.Close()
	if got := srv.MetricsSnapshot().RetainedTrackerItems; got != 0 {
		t.Fatalf("retained_tracker_items = %d after Close", got)
	}
}

// TestDematerializeReleasesLogBytes: materialized_log_bytes is the history
// the server's materialized documents hold in memory — up by a document's
// MemStats().LogBytes when it materializes, refreshed at a snapshot, back
// to where it was when the document is let go — and the heap follows it:
// dematerializing gives back about that much, and the text.
func TestDematerializeReleasesLogBytes(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: -1})
	// Two authors typing at once, so that the history is a few thousand
	// entries and spans, not a few long runs.
	ann, bob := egwalker.NewDoc("ann"), egwalker.NewDoc("bob")
	for i := 0; ann.NumEvents() < 30_000; i++ {
		for _, d := range []*egwalker.Doc{ann, bob} {
			if err := d.Insert((i*7919)%(d.Len()+1), "some words "); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 2 {
			if err := ann.Merge(bob); err != nil {
				t.Fatal(err)
			}
			if err := bob.Merge(ann); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ann.Merge(bob); err != nil {
		t.Fatal(err)
	}
	// One head at the end: the server's replica keeps no Eg-walker state
	// from the merge, so history and text are all it holds.
	if err := ann.Insert(0, "."); err != nil {
		t.Fatal(err)
	}
	heap := func() int {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int(m.HeapAlloc)
	}
	if got := srv.MetricsSnapshot().MaterializedLogBytes; got != 0 {
		t.Fatalf("materialized_log_bytes = %d on an empty server", got)
	}
	err := srv.With("big", func(ds *DocStore) error {
		if _, err := ds.Apply(ann.Events()); err != nil {
			return err
		}
		// The gauge holds what the document weighed when it was installed
		// (nothing yet); a snapshot brings it up to date.
		if err := ds.Snapshot(); err != nil {
			return err
		}
		ms := ds.Doc().MemStats()
		if got := srv.MetricsSnapshot().MaterializedLogBytes; got != int64(ms.LogBytes) || got < 100_000 {
			t.Errorf("materialized_log_bytes = %d after the snapshot, the document's history holds %d", got, ms.LogBytes)
		}
		before := heap()
		if err := ds.dematerialize(); err != nil {
			return err
		}
		freed := before - heap()
		if got := srv.MetricsSnapshot().MaterializedLogBytes; got != 0 {
			t.Errorf("materialized_log_bytes = %d after dematerializing", got)
		}
		// The journal-only store keeps an ID set in the document's place,
		// a few bytes per run; the rest of history and text comes back.
		if want := ms.LogBytes + ms.TextBytes; freed < want*7/10 || freed > want*13/10 {
			t.Errorf("dematerializing freed %d B of heap; the document held %d B of history and %d B of text", freed, ms.LogBytes, ms.TextBytes)
		}
		// Materialized again from the snapshot: sized by Load, no slack.
		if err := ds.Materialize(); err != nil {
			return err
		}
		again := ds.Doc().MemStats().LogBytes
		if got := srv.MetricsSnapshot().MaterializedLogBytes; got != int64(again) || again > ms.LogBytes {
			t.Errorf("materialized_log_bytes = %d after materializing again, the document's history holds %d (%d before)", got, again, ms.LogBytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if got := srv.MetricsSnapshot().MaterializedLogBytes; got != 0 {
		t.Fatalf("materialized_log_bytes = %d after Close", got)
	}
}
