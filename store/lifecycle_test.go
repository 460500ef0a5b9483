package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"egwalker"
	"egwalker/internal/fsys"
	"egwalker/netsync"
)

// TestLegalStepTable holds legalStep to the state machine as written
// down here, move by move: every pair of states outside the table is
// refused, and so is a state past the four.
func TestLegalStepTable(t *testing.T) {
	states := []docState{stateJournal, stateMaterialized, stateQuarantined, stateClosed}
	legal := map[[2]docState]bool{
		{stateJournal, stateMaterialized}:     true,
		{stateMaterialized, stateJournal}:     true,
		{stateJournal, stateQuarantined}:      true,
		{stateMaterialized, stateQuarantined}: true,
		{stateQuarantined, stateMaterialized}: true,
		{stateJournal, stateClosed}:           true,
		{stateMaterialized, stateClosed}:      true,
		{stateQuarantined, stateClosed}:       true,
	}
	for _, from := range states {
		for _, to := range states {
			if got := legalStep(from, to); got != legal[[2]docState{from, to}] {
				t.Errorf("legalStep(%v, %v) = %v", from, to, got)
			}
		}
		if legalStep(from, docState(len(states))) || legalStep(docState(len(states)), from) {
			t.Errorf("legalStep takes a state past the four with %v", from)
		}
	}
}

// TestRepairRightAfterScrub: a RepairDoc that runs as soon as scrubPass
// returns finds the quarantine already recorded, and lifts it for good.
// While the quarantine set was kept by a goroutine the store's hook
// started, that goroutine could land after the repair and put the
// repaired document back in the set.
func TestRepairRightAfterScrub(t *testing.T) {
	root := t.TempDir()
	fs := fsys.NewFaultFS(nil)
	var fired atomic.Int32
	srv, err := NewServer(root, ServerOptions{
		DocOptions:   Options{SegmentMaxBytes: 1 << 10, FS: fs},
		OnQuarantine: func(string, error) { fired.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var want string
	if err := srv.With("doc", func(ds *DocStore) error { want = fillSegments(t, ds, 100); return nil }); err != nil {
		t.Fatal(err)
	}
	segs := segPaths(t, root, "doc")
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	fs.FlipBit(segs[0], fi.Size()/2, 0x40)
	srv.scrubPass(nil)
	fs.Clear()
	if _, err := srv.RepairDoc("doc", nil); err != nil {
		t.Fatal(err)
	}
	if srv.IsQuarantined("doc") || srv.QuarantinedCount() != 0 {
		t.Fatalf("repaired document still in the quarantine set: %v", srv.QuarantinedDocIDs())
	}
	if m := srv.MetricsSnapshot(); m.QuarantinedDocs != 0 || m.Repairs != 1 {
		t.Fatalf("quarantined_docs = %d, repairs = %d after the repair; want 0 and 1", m.QuarantinedDocs, m.Repairs)
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("OnQuarantine fired %d times, want once", n)
	}
	if text, err := srv.Text("doc"); err != nil || len(text) == 0 || !strings.HasPrefix(want, text) {
		t.Fatalf("repaired text is not a prefix of what was written: %q, %v", text, err)
	}
}

// holdFS is the real filesystem, except that while held a Sync of a file
// under dir blocks until the hold is released. It counts the opens of
// dir (MkdirAll is the first thing an open does).
type holdFS struct {
	OSFS
	dir     string
	hold    chan struct{} // closed to release; nil while not holding
	blocked chan struct{} // one send per Sync that blocks
	opens   atomic.Int32
	mu      sync.Mutex
}

func (h *holdFS) MkdirAll(path string, perm os.FileMode) error {
	if path == h.dir {
		h.opens.Add(1)
	}
	return h.OSFS.MkdirAll(path, perm)
}

func (h *holdFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := h.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &holdFile{File: f, fs: h, under: strings.HasPrefix(name, h.dir)}, nil
}

type holdFile struct {
	File
	fs    *holdFS
	under bool
}

func (f *holdFile) Sync() error {
	f.fs.mu.Lock()
	hold := f.fs.hold
	f.fs.mu.Unlock()
	if f.under && hold != nil {
		f.fs.blocked <- struct{}{}
		<-hold
	}
	return f.File.Sync()
}

// TestReacquireWhileEvictedStoreCloses: an acquire of a document whose
// evicted store is still closing (its fsync stalled) waits for the close,
// then opens it; it does not try to open the directory while the old
// store holds its lock, and gets no ErrLocked.
func TestReacquireWhileEvictedStoreCloses(t *testing.T) {
	root := t.TempDir()
	hfs := &holdFS{dir: filepath.Join(root, "doc-a"), blocked: make(chan struct{}, 4)}
	srv, err := NewServer(root, ServerOptions{MaxOpenDocs: 1, MaxJournalDocs: 1, FlushInterval: time.Hour, DocOptions: Options{FS: hfs}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	w := egwalker.NewDoc("writer")
	if err := w.Insert(0, "kept across the close"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Append("doc-a", w.Events()); err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	hfs.mu.Lock()
	hfs.hold = hold
	hfs.mu.Unlock()
	evicted := make(chan error, 1)
	go func() { evicted <- srv.Append("doc-b", w.Events()) }() // evicts doc-a, whose close syncs
	<-hfs.blocked
	opens := hfs.opens.Load()

	type acquired struct {
		e   *entry
		err error
	}
	got := make(chan acquired, 1)
	go func() {
		e, err := srv.acquire("doc-a")
		got <- acquired{e, err}
	}()
	select {
	case a := <-got:
		t.Fatalf("acquire returned while the evicted store was closing: %v", a.err)
	case <-time.After(50 * time.Millisecond):
	}
	if n := hfs.opens.Load(); n != opens {
		t.Fatalf("%d opens of the directory while its evicted store was closing", n-opens)
	}
	close(hold)
	hfs.mu.Lock()
	hfs.hold = nil
	hfs.mu.Unlock()
	if err := <-evicted; err != nil {
		t.Fatal(err)
	}
	a := <-got
	if a.err != nil {
		t.Fatalf("acquire after the close: %v (ErrLocked: %v)", a.err, errors.Is(a.err, ErrLocked))
	}
	defer srv.release(a.e)
	if text := a.e.ds.Text(); text != w.Text() {
		t.Fatalf("reopened text %q, want %q", text, w.Text())
	}
}

// Operations FuzzHostedDocLifecycle decodes from its input, two bytes an
// operation: the operation, then its argument.
const (
	opAppend = iota
	opText
	opSubscribe
	opUnsubscribe
	opFlush
	opScrub // after a flipped bit in a sealed segment, when there is one
	opRepair
	opCompact
	opRestart // Close, then NewServer over the same root
	numOps
)

var lifecycleDocs = [...]string{"d0", "d1", "d2"}

// lifecycle drives a Server with room for one materialized and two open
// documents through the operations of a fuzz input, and after each one
// checks every document it hosts.
type lifecycle struct {
	t       testing.TB
	root    string
	fs      *fsys.FaultFS
	srv     *Server
	writers map[string]*egwalker.Doc // the reference: every accepted append
	subs    []lifecycleSub
	stores  map[string]*DocStore // the store each document was last seen open in
	states  map[string]docState  // and its state then
	moves   map[[2]docState]bool // the moves seen between two checks
}

type lifecycleSub struct {
	e  *entry
	id int
}

// nopConn is a subscriber's connection that nothing reads.
type nopConn struct{}

func (nopConn) Read([]byte) (int, error)    { return 0, errors.New("nothing to read") }
func (nopConn) Write(p []byte) (int, error) { return len(p), nil }

func lifecycleOptions(fs FS) ServerOptions {
	return ServerOptions{
		MaxOpenDocs:    1,
		MaxJournalDocs: 2,
		FlushInterval:  time.Hour, // the harness flushes
		SnapshotEvery:  -1,        // and compacts
		DocOptions:     Options{SegmentMaxBytes: 128, FS: fs},
	}
}

func runLifecycle(t testing.TB, data []byte, moves map[[2]docState]bool) {
	l := &lifecycle{
		t:       t,
		root:    t.TempDir(),
		fs:      fsys.NewFaultFS(nil),
		writers: map[string]*egwalker.Doc{},
		stores:  map[string]*DocStore{},
		states:  map[string]docState{},
		moves:   moves,
	}
	for i, id := range lifecycleDocs {
		l.writers[id] = egwalker.NewDoc("w" + string(rune('0'+i)))
	}
	l.restart()
	for i := 0; i+1 < len(data) && i < 128; i += 2 {
		l.do(int(data[i])%numOps, data[i+1])
		l.check()
	}
	l.dropSubs()
	for _, id := range lifecycleDocs {
		l.compareText(id)
	}
	l.check()
	if err := l.srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func (l *lifecycle) restart() {
	if l.srv != nil {
		l.dropSubs()
		if err := l.srv.Close(); err != nil {
			l.t.Fatal(err)
		}
		if n := l.srv.metrics.MaterializedDocs.Load(); n != 0 {
			l.t.Fatalf("materialized_docs = %d after Close", n)
		}
	}
	srv, err := NewServer(l.root, lifecycleOptions(l.fs))
	if err != nil {
		l.t.Fatal(err)
	}
	l.srv = srv
}

func (l *lifecycle) dropSubs() {
	for _, s := range l.subs {
		s.e.unsubscribe(s.id)
		l.srv.release(s.e)
	}
	l.subs = nil
}

// quarantined asks the document's store, opening it if it must.
func (l *lifecycle) quarantined(id string) bool {
	var q bool
	if err := l.srv.With(id, func(ds *DocStore) error { q, _ = ds.Quarantined(); return nil }); err != nil {
		l.t.Fatal(err)
	}
	return q
}

func (l *lifecycle) compareText(id string) {
	err := l.srv.With(id, func(ds *DocStore) error {
		if q, _ := ds.Quarantined(); q {
			return nil
		}
		if err := ds.Materialize(); err != nil {
			return err
		}
		if got, want := ds.Text(), l.writers[id].Text(); got != want {
			l.t.Fatalf("%s holds %q, the reference %q", id, got, want)
		}
		return nil
	})
	if err != nil {
		l.t.Fatal(err)
	}
}

func (l *lifecycle) do(op int, arg byte) {
	id := lifecycleDocs[int(arg)%len(lifecycleDocs)]
	switch op {
	case opAppend:
		if l.quarantined(id) {
			return
		}
		w := l.writers[id]
		v := w.Version()
		if err := w.Insert(int(arg)%(w.Len()+1), strings.Repeat(string(rune('a'+arg%26)), 1+int(arg)%4)); err != nil {
			l.t.Fatal(err)
		}
		events, err := w.EventsSince(v)
		if err != nil {
			l.t.Fatal(err)
		}
		if err := l.srv.Append(id, events); err != nil {
			l.t.Fatalf("append to %s: %v", id, err)
		}
	case opText:
		l.compareText(id)
	case opSubscribe:
		if len(l.subs) >= 3 {
			return
		}
		e, err := l.srv.acquire(id)
		if err != nil {
			l.t.Fatal(err)
		}
		plan, err := e.subscribe(nopConn{}, netsync.Hello{DocID: id})
		if err != nil {
			l.t.Fatal(err)
		}
		l.subs = append(l.subs, lifecycleSub{e, plan.id})
	case opUnsubscribe:
		if len(l.subs) == 0 {
			return
		}
		k := int(arg) % len(l.subs)
		s := l.subs[k]
		l.subs = append(l.subs[:k], l.subs[k+1:]...)
		s.e.unsubscribe(s.id)
		l.srv.release(s.e)
	case opFlush:
		l.srv.flushOnce()
	case opScrub:
		// Only a sealed segment is flipped: damage on the active one's tail
		// would read as a torn write at the next open, and be cut off.
		segs, _ := filepath.Glob(filepath.Join(l.root, id, "wal-*.seg"))
		if len(segs) >= 2 {
			if fi, err := os.Stat(segs[0]); err == nil && fi.Size() > 2*segHeaderLen {
				l.fs.FlipBit(segs[0], fi.Size()/2, 0x40)
			}
		}
		l.srv.scrubPass(nil)
		l.fs.Clear()
	case opRepair:
		w := l.writers[id]
		_, err := l.srv.RepairDoc(id, func(sum egwalker.VersionSummary) ([]egwalker.Event, error) {
			return w.EventsSinceSummary(sum)
		})
		if err != nil && l.quarantined(id) {
			l.t.Fatalf("repair of %s: %v", id, err)
		}
	case opCompact:
		err := l.srv.With(id, func(ds *DocStore) error { return ds.Compact() })
		if err != nil && !errors.Is(err, ErrQuarantined) {
			l.t.Fatalf("compact %s: %v", id, err)
		}
	case opRestart:
		l.restart()
	}
}

// check holds every hosted document to its state word and the server's
// gauges to the documents, and records the moves made since the last
// check.
func (l *lifecycle) check() {
	l.srv.mu.Lock()
	inMemory := 0
	open := map[string]*DocStore{}
	for id, e := range l.srv.open {
		if e.life != entryOpen {
			l.srv.mu.Unlock()
			l.t.Fatalf("%s left %v between operations", id, e.life)
		}
		st := e.ds.loadState()
		if st.inMemory() {
			inMemory++
		}
		e.ds.mu.Lock()
		held := e.ds.loadState() == st &&
			(st != stateJournal || e.ds.doc == nil && e.ds.known != nil) &&
			(st != stateMaterialized || e.ds.doc != nil && e.ds.qerr == nil) &&
			(st != stateQuarantined || e.ds.doc != nil && e.ds.qerr != nil)
		e.ds.mu.Unlock()
		if !held || st == stateClosed {
			l.srv.mu.Unlock()
			l.t.Fatalf("%s is %v in the open set, holding what another state holds", id, st)
		}
		open[id] = e.ds
	}
	l.srv.mu.Unlock()
	if got := l.srv.metrics.MaterializedDocs.Load(); got != int64(inMemory) {
		l.t.Fatalf("materialized_docs = %d, %d open documents in memory", got, inMemory)
	}
	if got, ids := l.srv.metrics.QuarantinedDocs.Load(), l.srv.QuarantinedDocIDs(); got != int64(len(ids)) {
		l.t.Fatalf("quarantined_docs = %d, quarantine set %v", got, ids)
	}
	for _, id := range lifecycleDocs {
		old, now := l.stores[id], open[id]
		if old != nil && old != now {
			if st := old.loadState(); st != stateClosed {
				l.t.Fatalf("%s left the open set %v", id, st)
			}
			l.move(id, l.states[id], stateClosed)
			delete(l.stores, id)
		}
		if now == nil {
			continue
		}
		from := stateJournal // a store opens journal-only, and moves on from there
		if old == now {
			from = l.states[id]
		}
		l.move(id, from, now.loadState())
		l.stores[id], l.states[id] = now, now.loadState()
	}
}

// move records that a document went from one state to another between two
// checks, by one step of the state machine or two.
func (l *lifecycle) move(id string, from, to docState) {
	if from == to {
		return
	}
	reach := legalStep(from, to)
	for mid := stateJournal; mid <= stateClosed && !reach; mid++ {
		reach = legalStep(from, mid) && legalStep(mid, to)
	}
	if !reach {
		l.t.Fatalf("%s went from %v to %v", id, from, to)
	}
	if l.moves != nil {
		l.moves[[2]docState{from, to}] = true
	}
}

func (st entryLife) String() string { return [...]string{"opening", "open", "closing"}[st] }

// lifecycleSeeds each take the hosted documents through some of the state
// machine's moves; between them they make every one.
var lifecycleSeeds = [][]byte{
	// Appends, a text that materializes d0, a text of d1 that sheds d0
	// back to the journal, a third document that closes the coldest.
	{opAppend, 0, opAppend, 3, opAppend, 1, opText, 0, opText, 1, opAppend, 2, opRestart, 0},
	// Enough appends to d0 to seal segments, then a flipped bit: d0 is
	// journal-only when the scrub quarantines it. The repair brings it
	// back materialized; the restart closes it.
	{opAppend, 0, opAppend, 3, opAppend, 6, opAppend, 9, opAppend, 12, opScrub, 0, opRepair, 0, opAppend, 3, opRestart, 0, opText, 0},
	// The same for d1, materialized when the scrub quarantines it, and
	// closed still quarantined.
	{opAppend, 1, opAppend, 4, opAppend, 7, opAppend, 10, opAppend, 13, opText, 1, opScrub, 1, opAppend, 1, opRestart, 0},
	// Subscribers, a flush, a compaction, and a subscriber that keeps
	// its document open past the cap.
	{opAppend, 2, opSubscribe, 2, opAppend, 5, opFlush, 0, opCompact, 2, opAppend, 0, opSubscribe, 0, opAppend, 1, opUnsubscribe, 0, opText, 2, opUnsubscribe, 0, opFlush, 0},
}

// FuzzHostedDocLifecycle: appends, reads, subscribers, flushes, scrubs of
// flipped bits, repairs, compactions and restarts, in any order, on three
// documents under a Server that keeps one materialized and two open.
// After each operation every open document is in one of the states the
// state machine allows, holding what that state holds; materialized_docs
// counts the open documents in memory; quarantined_docs counts the
// quarantine set; and every healthy document reads as the reference fed
// the same appends.
func FuzzHostedDocLifecycle(f *testing.F) {
	for _, seed := range lifecycleSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runLifecycle(t, data, nil) })
}

// TestLifecycleSeedsReachEveryMove: between them, the fuzzer's seeds make
// every move of the state machine.
func TestLifecycleSeedsReachEveryMove(t *testing.T) {
	moves := map[[2]docState]bool{}
	for _, seed := range lifecycleSeeds {
		runLifecycle(t, seed, moves)
	}
	for _, from := range []docState{stateJournal, stateMaterialized, stateQuarantined, stateClosed} {
		for _, to := range []docState{stateJournal, stateMaterialized, stateQuarantined, stateClosed} {
			if legalStep(from, to) && !moves[[2]docState{from, to}] {
				t.Errorf("no seed moves a document from %v to %v", from, to)
			}
		}
	}
}
