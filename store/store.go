package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"egwalker"
	"egwalker/internal/colenc"
)

// ErrLocked reports a document directory already open by another
// DocStore (usually another process; also a concurrent evicted store
// whose close has not finished).
var ErrLocked = errors.New("store: document directory is locked by another store")

// Options tune one durable document.
type Options struct {
	// SegmentMaxBytes is the WAL rotation threshold (default 1 MiB): a
	// commit that pushes the active segment past it seals the segment
	// and starts a new one.
	SegmentMaxBytes int64
	// SnapshotEvery, when > 0, takes a snapshot + compaction
	// synchronously after that many events have been committed since
	// the last snapshot. Leave 0 when a Server's background compactor
	// manages snapshots instead.
	SnapshotEvery int
	// SyncEveryCommit fsyncs after every commit. Durable but slow;
	// leave false to let the caller batch fsyncs via Sync (what
	// Server's group-commit flusher does).
	SyncEveryCommit bool
	// FS is the filesystem the document's data files go through (nil:
	// the real one). Tests and the fault-injecting simulator substitute
	// a FaultFS here.
	FS FS
	// Quarantine keeps a document whose sealed history is damaged
	// (mid-segment or snapshot corruption) openable: instead of Open
	// failing, the store comes up quarantined — read-only on the
	// salvageable prefix, refusing writes until Repair rebuilds it.
	// Off by default: bare DocStore users keep the fail-stop contract.
	Quarantine bool

	// metrics, when set, is the hosting Server's: the store keeps its
	// gauges of materialized documents and what they hold as it moves
	// between states (setStateLocked), and counts a write error that
	// poisons it. Nil for a bare DocStore.
	metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 1 << 20
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

// RecoveryInfo reports what opening a document had to do to bring it
// back. Open and OpenLazy read the directory in the same pass, so they
// report the same for the same directory.
type RecoveryInfo struct {
	// SnapshotSeq is the segment seq of the snapshot loaded (0: none,
	// recovery started from an empty document).
	SnapshotSeq uint64
	// SkippedSnapshots counts newer snapshots that were unreadable or
	// corrupt and were passed over for an older one.
	SkippedSnapshots int
	// SegmentsReplayed and EventsReplayed measure the WAL tail replay:
	// the live segments walked and the events new to the document in them.
	SegmentsReplayed int
	EventsReplayed   int
	// TruncatedBytes is how much torn tail was cut from the final
	// segment (0 for a clean shutdown).
	TruncatedBytes int64
}

// DocStore is one durable document: an egwalker.Doc whose every change
// is appended to a segmented write-ahead log, checkpointed by
// snapshots. All methods are safe for concurrent use.
//
// A DocStore is in one of four states, held in its state word
// (docState), which only setStateLocked writes. Journal-only, it holds
// just the known-ID set scanned from disk: uploads validate and journal
// without decoding beyond their causal structure, and cold catch-ups
// stream encoded blocks straight off disk (CutForServe/StreamBlocks).
// Materialized, the full egwalker.Doc lives in memory and every method
// works; methods that need the document — Text, Version, EventsSince,
// Snapshot — materialize a journal-only store on demand by replaying
// snapshot + WAL from disk, and a host dematerializes it when memory is
// short. Quarantined, it serves a salvaged Doc read-only until Repair
// rebuilds the directory. Closed is the end. A write error (werr) is not
// a state: it poisons the store read-only in whichever state it is in.
type DocStore struct {
	mu    sync.Mutex
	root  string // store root; this doc lives in root/<escaped docID>/
	dir   string
	docID string
	agent string
	opts  Options

	fs FS // opts.FS; every data-file access goes through it

	// state is the state word, a docState: written only by
	// setStateLocked, with mu held, and read without it by a host's LRU.
	state atomic.Uint32
	doc   *egwalker.Doc
	known *idSet // journal-only: the IDs the WAL+snapshot hold
	// replay and logBytes are doc's replay counters and history bytes as
	// the metrics were last told of them.
	replay   egwalker.ReplayStats
	logBytes int

	lock       *os.File // inter-process flock on the doc directory
	active     File     // nil while quarantined at open time
	activeSeq  uint64
	activeSize int64
	syncedSize int64 // bytes of the active segment known fsynced

	snapSeq         uint64 // newest snapshot covers segments < snapSeq
	firstSeg        uint64 // oldest live segment (>= snapSeq)
	blockServable   bool   // snapshot (if any) is a compact frame a peer can take verbatim
	persisted       egwalker.Version
	eventsSinceSnap int
	sealedSinceSnap int // sealed segments not yet covered by a snapshot
	unsyncedEvents  int // events committed since takeUnsyncedEvents

	recovery RecoveryInfo
	werr     error // sticky write error; the store refuses further writes
	qerr     error // why the store is quarantined
	salvage  SalvageInfo
}

func segName(seq uint64) string  { return fmt.Sprintf("wal-%08d.seg", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.egw", seq) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Open materializes (or creates) the document docID under the store
// root, recovering snapshot + WAL tail from disk. The agent names this
// replica for future local edits, exactly as in egwalker.Load.
func Open(root, docID, agent string, opts Options) (*DocStore, error) {
	return open(root, docID, agent, opts, false)
}

// OpenLazy opens (or creates) the document journal-only: instead of
// decoding the history into an egwalker.Doc, recovery scans the
// snapshot's and WAL blocks' ID runs and causal references — a fraction
// of the work and near-zero resident memory per document. It is Open's
// recovery pass, with the same fallback past unreadable snapshots and the
// same verdict on damage; only a legacy EGW1 snapshot, which the scan
// cannot read, makes it materialize. Otherwise the document materializes
// lazily on first use of a method that needs it.
func OpenLazy(root, docID, agent string, opts Options) (*DocStore, error) {
	return open(root, docID, agent, opts, true)
}

func open(root, docID, agent string, opts Options, lazy bool) (*DocStore, error) {
	opts = opts.withDefaults()
	dir := filepath.Join(root, escapeDocID(docID))
	if err := opts.FS.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &DocStore{root: root, dir: dir, docID: docID, agent: agent, opts: opts, fs: opts.FS, lock: lock}
	if err = s.recover(lazy); err != nil && opts.Quarantine {
		// Sealed history is damaged. Come up quarantined instead of
		// refusing: salvage what replays cleanly and serve it read-only
		// until Repair rebuilds the document.
		*s = DocStore{root: root, dir: dir, docID: docID, agent: agent, opts: opts, fs: opts.FS, lock: lock}
		err = s.recoverQuarantined(err)
	}
	if err != nil {
		unlockDir(lock)
		return nil, err
	}
	return s, nil
}

// scanDirSeqs lists the document directory's snapshot and segment
// sequence numbers, each sorted ascending.
func (s *DocStore) scanDirSeqs() (snaps, segs []uint64, err error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "snap-", ".egw"); ok {
			snaps = append(snaps, seq)
		}
		if seq, ok := parseSeq(e.Name(), "wal-", ".seg"); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return snaps, segs, nil
}

// recover brings the document back from its directory, in one pass for
// both open paths: the newest snapshot that reads (older ones when it
// does not), then every live WAL segment after it, oldest first, each
// block applied as it is walked, and a torn tail cut off the last one.
// lazy selects what the snapshot and the blocks go into. Journal-only, it
// is the known-ID set: the snapshot's ID runs ((*colenc.Decoder).Inspect),
// and each block through the admission check it passed when it was
// uploaded (scanBlockPayload), without ever constructing the document.
// Otherwise, or when the snapshot is a legacy EGW1 file Inspect cannot
// read, it is an egwalker.Doc the snapshot is loaded into and the blocks
// are applied to. Damage is an error: a hole in the live segment numbers,
// a snapshot no older snapshot or segment covers, and anything in a
// segment other than a torn tail on the last one.
func (s *DocStore) recover(lazy bool) error {
	snaps, segs, err := s.scanDirSeqs()
	if err != nil {
		return err
	}
	start := time.Now()
	dec := colenc.GetDecoder()
	defer dec.Put()

	snapSeq, skipped, why := s.chooseSnapshot(snaps, func(data []byte) (err error) {
		s.blockServable = colenc.Sniff(data) && len(data) <= egwalker.MaxBatchBytes
		if !lazy || !colenc.Sniff(data) {
			s.doc, err = egwalker.Load(bytes.NewReader(data), s.agent)
			return err
		}
		info, err := dec.Inspect(data)
		if err != nil {
			return err
		}
		known := newIDSet()
		for _, r := range info.Runs {
			known.addRun(r.Agent, r.Seq, r.Len)
		}
		for _, p := range info.ExternalParents {
			if !known.has(p.Agent, p.Seq) {
				return fmt.Errorf("references unknown parent %s/%d", p.Agent, p.Seq)
			}
		}
		s.known = known
		return nil
	})
	s.snapSeq, s.recovery.SnapshotSeq, s.recovery.SkippedSnapshots = snapSeq, snapSeq, skipped
	if snapSeq == 0 {
		// Snapshot n holds what segments 1 to n-1 did (a repair's, n = 1,
		// what none does). With no snapshot left the WAL must still reach
		// back to segment 1; after a compaction it does not, and the
		// history the snapshots held is gone: damage, not an empty
		// document.
		if why != nil && (len(segs) == 0 || segs[0] > 1 || snaps[0] == 1) {
			return fmt.Errorf("%w, and no older snapshot or WAL segment covers it", why)
		}
		s.blockServable = true
		if lazy {
			s.known = newIDSet()
		} else {
			s.doc = egwalker.NewDoc(s.agent)
		}
	}

	// The live segments run from the snapshot's seq (1 without one) to
	// the newest, every one of them present: a hole is lost history.
	live := segs[sort.Search(len(segs), func(i int) bool { return segs[i] >= snapSeq }):]
	lastRemoved := false
	for i, seq := range live {
		if want := max(snapSeq, 1) + uint64(i); seq != want {
			return fmt.Errorf("store: segment %s is missing (%s follows it)", segName(want), segName(seq))
		}
		path := filepath.Join(s.dir, segName(seq))
		data, err := s.fs.ReadFile(path)
		if err != nil {
			return err
		}
		fresh := 0
		var w *blockWalk
		if s.doc != nil {
			w, err = replayBlocks(data, func(evs []egwalker.Event) error {
				n := s.doc.NumEvents()
				_, err := s.doc.Apply(evs)
				fresh += s.doc.NumEvents() - n
				return err
			})
		} else {
			w, err = walkSegmentBlocks(data, func(payload []byte) error {
				n, err := scanBlockPayload(payload, s.known, dec)
				fresh += n
				return err
			})
		}
		if err != nil {
			return fmt.Errorf("store: segment %s: %w", path, err)
		}
		if w.tail != nil {
			if i < len(live)-1 || !tornTail(w.tail) {
				return fmt.Errorf("store: segment %s corrupt: %w", path, w.tail)
			}
			// Torn tail from a crash mid-append: cut it off. A segment
			// torn inside its own header is recreated from scratch — a
			// headerless file must never be appended to.
			s.recovery.TruncatedBytes = int64(len(data)) - w.validLen
			if lastRemoved = w.validLen < segHeaderLen; lastRemoved {
				err = s.fs.Remove(path)
			} else {
				err = s.fs.Truncate(path, w.validLen)
			}
			if err != nil {
				return err
			}
		}
		s.recovery.EventsReplayed += fresh
		s.recovery.SegmentsReplayed++
	}
	if s.doc != nil && s.doc.PendingEvents() > 0 {
		return fmt.Errorf("store: recovery left %d events with missing parents", s.doc.PendingEvents())
	}

	if err := s.openActive(live, lastRemoved); err != nil {
		return err
	}
	s.eventsSinceSnap = s.recovery.EventsReplayed
	s.sealedSinceSnap = max(s.recovery.SegmentsReplayed-1, 0)
	if s.doc == nil {
		return nil
	}
	s.persisted = s.doc.Version()
	s.installedLocked(stateMaterialized, start)
	return nil
}

// chooseSnapshot hands load the newest snapshot's bytes, and each older
// one's in turn while a snapshot does not read or load refuses it. It
// returns the seq of the one taken (0: none), how many were passed over,
// and why the last of those was.
func (s *DocStore) chooseSnapshot(snaps []uint64, load func(data []byte) error) (seq uint64, skipped int, why error) {
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := s.fs.ReadFile(filepath.Join(s.dir, snapName(snaps[i])))
		if err == nil {
			if err = load(data); err == nil {
				return snaps[i], skipped, why
			}
		}
		skipped++
		why = fmt.Errorf("store: snapshot %s unreadable: %w", snapName(snaps[i]), err)
	}
	return 0, skipped, why
}

// openActive reopens the newest live segment for appending — or creates
// it, when there is none or recovery removed it — and records the oldest
// live segment for block streaming.
func (s *DocStore) openActive(live []uint64, lastRemoved bool) error {
	s.activeSeq, s.firstSeg = max(s.snapSeq, 1), max(s.snapSeq, 1)
	if len(live) > 0 {
		s.activeSeq, s.firstSeg = live[len(live)-1], live[0]
	}
	if len(live) == 0 || lastRemoved {
		return s.createActive()
	}
	f, err := s.fs.OpenFile(filepath.Join(s.dir, segName(s.activeSeq)), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return err
	}
	s.active, s.activeSize, s.syncedSize = f, size, size
	return nil
}

// scanBlockPayload folds one WAL block's IDs into known once it passes the
// admission check a live upload goes through (admitPayload), and returns
// how many of its events were not already known.
func scanBlockPayload(payload []byte, known *idSet, dec *colenc.Decoder) (int, error) {
	b := batch{raw: payload}
	fresh, runs, err := known.admitPayload(&b, dec)
	if err != nil {
		return 0, err
	}
	if runs != nil {
		known.addRuns(runs)
	} else {
		known.addEvents(b.events)
	}
	return fresh, nil
}

// createActive makes wal-<activeSeq>.seg with a fresh header and
// fsyncs it (plus the directory) so the segment survives a crash.
func (s *DocStore) createActive() error {
	f, err := s.fs.OpenFile(filepath.Join(s.dir, segName(s.activeSeq)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	if err := writeSegmentHeader(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	syncDir(s.fs, s.dir)
	s.active = f
	s.activeSize = segHeaderLen
	s.syncedSize = segHeaderLen
	return nil
}

// syncDir fsyncs a directory through fs, so a file created or renamed in
// it survives a crash. Best effort: not every filesystem opens or syncs a
// directory.
func syncDir(fs FS, dir string) {
	if d, err := fs.OpenFile(dir, os.O_RDONLY, 0); err == nil {
		d.Sync()
		d.Close()
	}
}

// Recovery reports what opening the document did (snapshot chosen,
// events replayed, torn bytes truncated).
func (s *DocStore) Recovery() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Materialize brings the document into memory if it is journal-only,
// replaying snapshot + WAL from disk. Most callers never need it —
// every method that requires the document materializes on demand —
// but it surfaces the replay error precisely for callers about to use
// a value-returning accessor.
func (s *DocStore) Materialize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.materializeLocked()
}

// materializeLocked loads the document from disk (snapshot snapSeq
// plus segments firstSeg..activeSeq — everything written is visible
// through the filesystem, fsynced or not) and leaves journal-only
// mode.
func (s *DocStore) materializeLocked() error {
	if s.doc != nil {
		return nil
	}
	if s.loadState() == stateClosed {
		return fmt.Errorf("store: %s is closed", s.docID)
	}
	start := time.Now()
	doc := egwalker.NewDoc(s.agent)
	if s.snapSeq > 0 {
		data, err := s.fs.ReadFile(filepath.Join(s.dir, snapName(s.snapSeq)))
		if err == nil {
			doc, err = egwalker.Load(bytes.NewReader(data), s.agent)
		}
		if err != nil {
			return fmt.Errorf("store: materializing %s: %w", s.docID, err)
		}
	}
	for seq := s.firstSeg; seq <= s.activeSeq; seq++ {
		path := filepath.Join(s.dir, segName(seq))
		data, err := s.fs.ReadFile(path)
		if err == nil {
			var w *blockWalk
			w, err = replayBlocks(data, func(evs []egwalker.Event) error {
				_, err := doc.Apply(evs)
				return err
			})
			// A torn tail on the active segment is tolerated only when the
			// store already refuses writes for it (sticky werr after a
			// partial append); anything else is damage that appeared while
			// the store was live.
			if err == nil && w.tail != nil && !(seq == s.activeSeq && s.werr != nil && tornTail(w.tail)) {
				err = w.tail
			}
		}
		if err != nil {
			return fmt.Errorf("store: materializing %s: segment %s: %w", s.docID, path, err)
		}
	}
	if p := doc.PendingEvents(); p > 0 {
		return fmt.Errorf("store: materializing %s left %d events with missing parents", s.docID, p)
	}
	s.doc = doc
	s.persisted = doc.Version()
	s.known = nil
	s.installedLocked(stateMaterialized, start)
	return nil
}

// docState is a DocStore's state word.
type docState uint32

const (
	stateJournal      docState = iota // the known-ID set; no document in memory
	stateMaterialized                 // the egwalker.Doc in memory
	stateQuarantined                  // a salvaged egwalker.Doc, read-only
	stateClosed                       // released
)

var stateNames = [...]string{"journal", "materialized", "quarantined", "closed"}

func (st docState) String() string { return stateNames[st] }

// inMemory reports whether a store in state st holds an egwalker.Doc.
func (st docState) inMemory() bool { return st == stateMaterialized || st == stateQuarantined }

// legalSteps is the state machine, legalSteps[from][to]: a journal-only
// store materializes and is dematerialized, either is quarantined, a
// repair brings a quarantined one back materialized, and any closes.
var legalSteps = [4][4]bool{
	stateJournal:      {stateMaterialized: true, stateQuarantined: true, stateClosed: true},
	stateMaterialized: {stateJournal: true, stateQuarantined: true, stateClosed: true},
	stateQuarantined:  {stateMaterialized: true, stateClosed: true},
}

// legalStep reports whether a store may move from one state to another.
func legalStep(from, to docState) bool {
	return from <= stateClosed && to <= stateClosed && legalSteps[from][to]
}

func (s *DocStore) loadState() docState { return docState(s.state.Load()) }

// setStateLocked is the one writer of the state word. It refuses a move
// legalStep does not allow (a bug in the store, so it panics), publishes
// the word for readers that hold no lock, and keeps the host's gauges: a
// document that comes into memory counts as a materialization, and one
// that leaves it takes its history bytes and kept merge state back.
func (s *DocStore) setStateLocked(to docState) {
	from := s.loadState()
	if !legalStep(from, to) {
		panic(fmt.Sprintf("store: %s: no move from %v to %v", s.docID, from, to))
	}
	s.state.Store(uint32(to))
	if from.inMemory() == to.inMemory() {
		return
	}
	if m := s.opts.metrics; m != nil {
		if to.inMemory() {
			m.MaterializedDocs.Add(1)
			m.LazyMaterializations.Inc()
		} else {
			m.MaterializedDocs.Add(-1)
		}
	}
	s.noteReplayLocked()
	s.noteLogBytesLocked()
}

// installedLocked moves the store to state to, materialized or quarantined,
// for the document in s.doc, which took since start to build if it is new.
func (s *DocStore) installedLocked(to docState, start time.Time) {
	if m := s.opts.metrics; m != nil && !s.loadState().inMemory() {
		m.MaterializeNs.Observe(time.Since(start).Nanoseconds())
	}
	s.setStateLocked(to)
}

// noteLogBytesLocked tells the metrics how the bytes of history held by
// the document in memory have moved since they were last told: when a
// document comes into memory or leaves it, and when a snapshot is written
// (the one other moment the store walks the whole document anyway —
// sizing it walks the text — so between snapshots the gauge lags the
// document's growth).
func (s *DocStore) noteLogBytesLocked() {
	m := s.opts.metrics
	if m == nil {
		return
	}
	now := 0
	if s.loadState().inMemory() {
		now = s.doc.MemStats().LogBytes
	}
	if now != s.logBytes {
		m.MaterializedLogBytes.Add(int64(now - s.logBytes))
		s.logBytes = now
	}
}

// noteReplayLocked tells the metrics how the replay counters of the
// document in memory (egwalker.ReplayStats) have moved since they were
// last told: after every merge, and when a document comes into memory or
// leaves it.
func (s *DocStore) noteReplayLocked() {
	m := s.opts.metrics
	if m == nil {
		return
	}
	prev := s.replay
	var now egwalker.ReplayStats
	if s.loadState().inMemory() {
		now = s.doc.ReplayStats()
	} else {
		// The document is gone, its counters with it (the next one starts
		// at zero); only what it kept for its next merge is taken back.
		prev = egwalker.ReplayStats{RetainedItems: prev.RetainedItems}
	}
	s.replay = now
	if now == prev {
		return
	}
	m.SectionsContinued.Add(int64(now.SectionsContinued - prev.SectionsContinued))
	m.SectionsRebuilt.Add(int64(now.SectionsRebuilt - prev.SectionsRebuilt))
	m.SilentReplayEvents.Add(int64(now.EventsReplayedSilently - prev.EventsReplayedSilently))
	m.RetainedTrackerItems.Add(int64(now.RetainedItems - prev.RetainedItems))
}

// dematerialize releases the in-memory document, dropping the store
// back to journal-only mode: the known-ID set is rebuilt from the doc's
// summary, a run per agent range, and the doc freed. It refuses
// (keeping the doc) when in-memory state would be lost — events
// buffered for missing parents live nowhere else — or when a sticky
// write error means disk lags the doc.
func (s *DocStore) dematerialize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.loadState() {
	case stateClosed:
		return fmt.Errorf("store: %s is closed", s.docID)
	case stateJournal:
		return nil
	case stateQuarantined:
		// The salvaged document exists only in memory; the disk under it
		// is damaged, so letting it go would lose the salvage.
		return fmt.Errorf("%w: %v", ErrQuarantined, s.qerr)
	}
	if s.werr != nil {
		return s.werr
	}
	if p := s.doc.PendingEvents(); p > 0 {
		return fmt.Errorf("store: %s holds %d events buffered for missing parents", s.docID, p)
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	known := newIDSet()
	for agent, ranges := range s.doc.Summary() {
		for _, r := range ranges {
			known.addRun(agent, r.Start, r.End-r.Start)
		}
	}
	s.known = known
	s.doc = nil
	s.persisted = nil
	s.setStateLocked(stateJournal)
	return nil
}

// Doc exposes the underlying replica for reads (Events, EventsSince,
// Fingerprint, TextAt...), materializing it if needed (nil only if
// materialization fails). Mutate only through DocStore methods, or the
// changes will not be journaled.
func (s *DocStore) Doc() *egwalker.Doc {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.materializeLocked()
	return s.doc
}

// Text returns the current document text, materializing if needed
// ("" if materialization fails; use Materialize for the error).
func (s *DocStore) Text() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.materializeLocked() != nil {
		return ""
	}
	return s.doc.Text()
}

// Len returns the document length in runes, materializing if needed.
func (s *DocStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.materializeLocked() != nil {
		return 0
	}
	return s.doc.Len()
}

// Fingerprint returns the document's history fingerprint (see
// Doc.Fingerprint), materializing if needed — the cluster convergence
// oracle: replicas holding the same history agree on it.
func (s *DocStore) Fingerprint() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.materializeLocked(); err != nil {
		return 0, err
	}
	return s.doc.Fingerprint(), nil
}

// NumEvents returns the number of events in the document's history.
// Journal-only stores answer from the known-ID set without
// materializing.
func (s *DocStore) NumEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.numEventsLocked()
}

func (s *DocStore) numEventsLocked() int {
	if s.doc == nil {
		return s.known.numEvents()
	}
	return s.doc.NumEvents()
}

// Events returns the full history in causal order (see Doc.Events),
// materializing if needed (nil if materialization fails).
func (s *DocStore) Events() []egwalker.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.materializeLocked() != nil {
		return nil
	}
	return s.doc.Events()
}

// EventsSince returns the events not within v (see Doc.EventsSince),
// materializing if needed.
func (s *DocStore) EventsSince(v egwalker.Version) ([]egwalker.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.materializeLocked(); err != nil {
		return nil, err
	}
	return s.doc.EventsSince(v)
}

// Summary returns the run-length version summary of everything the
// store holds. Journal-only stores answer from the known-ID index —
// which already is the summary — without materializing; this is what
// keeps the cluster's steady-state anti-entropy exchange free of
// materialization.
func (s *DocStore) Summary() (egwalker.VersionSummary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doc == nil && s.known != nil {
		return s.known.summary(), nil
	}
	if err := s.materializeLocked(); err != nil {
		return nil, err
	}
	return s.doc.Summary(), nil
}

// EventsSinceSummary returns exactly the events the peer summary does
// not cover (see Doc.EventsSinceSummary) — the exact-diff serving
// side of the summary handshake. When a journal-only store's entire
// event set is covered by the summary the answer is empty and the
// document is never materialized: converged replicas heal-check each
// other for free.
func (s *DocStore) EventsSinceSummary(sum egwalker.VersionSummary) ([]egwalker.Event, error) {
	if err := sum.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doc == nil && s.known != nil && s.known.coveredBy(sum) {
		return nil, nil
	}
	if err := s.materializeLocked(); err != nil {
		return nil, err
	}
	return s.doc.EventsSinceSummary(sum)
}

// unsnapshottedEvents reports how many events have been journaled
// since the last snapshot — the compaction-pressure signal Server's
// flusher watches.
func (s *DocStore) unsnapshottedEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eventsSinceSnap
}

// Insert applies a local insert and journals it, materializing first
// if needed.
func (s *DocStore) Insert(pos int, text string) error {
	return s.edit(func(d *egwalker.Doc) error { return d.Insert(pos, text) })
}

// Delete applies a local delete and journals it, materializing first
// if needed.
func (s *DocStore) Delete(pos, count int) error {
	return s.edit(func(d *egwalker.Doc) error { return d.Delete(pos, count) })
}

// Apply merges remote events (as Doc.Apply) and journals whatever was
// admitted, materializing first if needed. Events still waiting for
// missing parents are buffered in memory only — a causal gap lost in a
// crash is recovered the same way a message lost on the network is: by
// anti-entropy with peers.
func (s *DocStore) Apply(events []egwalker.Event) ([]egwalker.Patch, error) {
	var patches []egwalker.Patch
	if err := s.edit(func(d *egwalker.Doc) (err error) { patches, err = d.Apply(events); return err }); err != nil {
		return nil, err
	}
	return patches, nil
}

// edit makes a change to the document, materialized first, and journals it.
func (s *DocStore) edit(change func(*egwalker.Doc) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	if err := s.materializeLocked(); err != nil {
		return err
	}
	if err := change(s.doc); err != nil {
		return err
	}
	return s.commitLocked()
}

// batch is an uploaded batch on its way through the store and the server:
// the payload as it arrived, if it arrived encoded, and its events from
// the moment something needs them — Doc.Apply on a materialized
// document, the replication tap — decoded once.
type batch struct {
	raw    []byte
	events []egwalker.Event // nil until decoded, unless the batch arrived decoded
	n      int              // event count, once known
}

// Events returns the batch's events, decoding (and so validating) the
// payload on first use.
func (b *batch) Events() ([]egwalker.Event, error) {
	if b.events == nil && b.raw != nil {
		events, err := egwalker.UnmarshalEventsAuto(b.raw)
		if err != nil {
			return nil, err
		}
		b.events = events
	}
	b.n = len(b.events)
	return b.events, nil
}

// IngestBatch merges an uploaded batch and journals it, for a document
// in either state; it returns how many of its events were new. raw is the
// batch as sent (nil if it arrived decoded); events, given beside it, must
// be raw's own decoding. When every event is new and raw is in the
// encoding egwalker.MarshalBatches picks for that many events, raw is
// journaled verbatim; otherwise the events the batch added are, in batch
// order, through MarshalBatches — unless an event came before its parent
// in the batch, or events that wait for a parent went in or out: then the
// journal gets what the document holds past it, in causal order.
// Journal-only, the batch is admitted against the known-ID set, which
// checks causal structure, not positions: an impossible position surfaces
// at materialization, not at upload. A causal gap materializes the
// document, which alone can hold events until their parents arrive.
func (s *DocStore) IngestBatch(events []egwalker.Event, raw []byte) (int, error) {
	fresh, _, err := s.ingestBatch(&batch{raw: raw, events: events})
	return fresh, err
}

// ingestBatch is IngestBatch, also reporting whether the batch left events
// waiting for their parents (parked), which a host relays like new ones.
func (s *DocStore) ingestBatch(b *batch) (fresh int, parked bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return 0, false, err
	}
	var runs []colenc.Run
	if s.doc == nil {
		dec := colenc.GetDecoder()
		defer dec.Put()
		if fresh, runs, err = s.known.admitPayload(b, dec); errors.Is(err, errCausalGap) {
			err = s.materializeLocked()
		}
		if err != nil {
			return 0, false, err
		}
	}
	var news []egwalker.Event // the batch's new events, as sent
	if s.doc != nil {
		events, err := b.Events()
		if err != nil {
			return 0, false, err
		}
		var ordered bool
		news, ordered = newInOrder(events, s.doc.Knows)
		// current: the journal holds all of it (a refused local edit does not)
		before, pending, current := s.doc.NumEvents(), s.doc.PendingEvents(), slices.Equal(s.persisted, s.doc.Version())
		if _, err := s.doc.Apply(events); err != nil {
			return 0, false, err
		}
		fresh, parked = s.doc.NumEvents()-before, s.doc.PendingEvents() > pending
		// An event sent before its parent (as on every causal gap that
		// materialized the document) went in in causal order, not as sent.
		if !ordered || !current || pending > 0 || parked {
			return fresh, parked, s.commitLocked()
		}
		s.noteReplayLocked()
	}
	if fresh == 0 {
		return 0, false, nil
	}
	blocks := [][]byte{nil}
	if fresh == b.n && b.raw != nil && len(b.raw) <= egwalker.MaxBatchBytes && colenc.Sniff(b.raw) == (fresh >= colenc.ColumnarFrom) {
		blocks[0], err = sealBlock(b.raw) // all of it new, in the encoding MarshalBatches picks for its size
	} else {
		if news == nil {
			events, err := b.Events()
			if err != nil {
				return 0, false, err
			}
			news, _ = newInOrder(events, func(id egwalker.EventID) bool { return s.known.has(id.Agent, id.Seq) })
		}
		blocks, err = encodeBlocks(news)
	}
	if err != nil {
		return 0, false, err
	}
	return fresh, false, s.journalLocked(blocks, fresh, b, runs)
}

func (s *DocStore) writable() error {
	switch s.loadState() {
	case stateClosed:
		return fmt.Errorf("store: %s is closed", s.docID)
	case stateQuarantined:
		return fmt.Errorf("%w: %v", ErrQuarantined, s.qerr)
	}
	return s.werr
}

// setWerrLocked records the first write error, poisoning the store
// read-only, and counts it once.
func (s *DocStore) setWerrLocked(err error) {
	if s.werr != nil {
		return
	}
	s.werr = err
	if m := s.opts.metrics; m != nil {
		m.WALWriteErrors.Inc()
	}
}

// commitLocked journals everything the doc knows beyond the persisted
// version, in causal order: a local edit, or an upload that sent an event
// before its parent or released or parked events waiting for one. Called
// with s.mu held after every mutation, so the WAL is always a complete
// journal of the admitted history.
func (s *DocStore) commitLocked() error {
	s.noteReplayLocked()
	evs, err := s.doc.EventsSince(s.persisted)
	if err != nil || len(evs) == 0 {
		return err
	}
	blocks, err := encodeBlocks(evs)
	if err != nil {
		return err
	}
	return s.journalLocked(blocks, len(evs), nil, nil)
}

// journalLocked is the one way events reach the WAL: it appends the blocks
// holding n new events, poisoning the store on a partial write, records
// them (persisted, or the known set from the admitted runs or b's events)
// and syncs, rotates and snapshots per options.
func (s *DocStore) journalLocked(blocks [][]byte, n int, b *batch, runs []colenc.Run) error {
	for _, block := range blocks {
		w, err := s.active.Write(block)
		s.activeSize += int64(w)
		if err != nil {
			// A partial write leaves a torn tail exactly like a crash;
			// refuse further writes so it stays at the tail.
			s.setWerrLocked(fmt.Errorf("store: WAL append failed (reopen to recover): %w", err))
			return s.werr
		}
	}
	switch {
	case s.doc != nil:
		s.persisted = s.doc.Version()
	case runs != nil:
		s.known.addRuns(runs)
	default:
		s.known.addEvents(b.events)
	}
	s.eventsSinceSnap += n
	s.unsyncedEvents += n
	if s.opts.SyncEveryCommit {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	if s.activeSize >= s.opts.SegmentMaxBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if s.opts.SnapshotEvery > 0 && s.eventsSinceSnap >= s.opts.SnapshotEvery {
		return s.compactLocked()
	}
	return nil
}

// takeUnsyncedEvents returns how many events were committed since the
// last call and resets the count: the group-commit batch-size signal a
// flusher records after each fsync (how much work one fsync made
// durable).
func (s *DocStore) takeUnsyncedEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.unsyncedEvents
	s.unsyncedEvents = 0
	return n
}

// Sync fsyncs the active segment: everything committed so far becomes
// crash-durable. Callers serving many appends batch their fsyncs by
// calling Sync on a timer or per client round-trip (see Server).
func (s *DocStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loadState() == stateClosed {
		return fmt.Errorf("store: %s is closed", s.docID)
	}
	return s.syncLocked()
}

func (s *DocStore) syncLocked() error {
	if s.syncedSize == s.activeSize {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		s.setWerrLocked(err)
		return err
	}
	s.syncedSize = s.activeSize
	return nil
}

// rotateLocked seals the active segment (fsync + close) and starts the
// next one.
func (s *DocStore) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return err
	}
	s.activeSeq++
	s.sealedSinceSnap++
	return s.createActive()
}

// Snapshot checkpoints the document: the active segment is sealed, and
// a full Doc.Save (with the final text cached) is written atomically as
// snap-<seq>.egw covering every sealed segment. Compact removes what
// the snapshot made redundant.
func (s *DocStore) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	return s.snapshotLocked()
}

func (s *DocStore) snapshotLocked() error {
	if err := s.materializeLocked(); err != nil {
		return err
	}
	if err := s.rotateLocked(); err != nil {
		return err
	}
	final := filepath.Join(s.dir, snapName(s.activeSeq))
	tmp := final + ".tmp"
	size, err := s.writeSnapshot(tmp)
	if err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return err
	}
	syncDir(s.fs, s.dir)
	s.snapSeq = s.activeSeq
	s.firstSeg = s.activeSeq
	s.eventsSinceSnap = 0
	s.sealedSinceSnap = 0
	s.blockServable = size <= egwalker.MaxBatchBytes
	s.noteLogBytesLocked()
	return nil
}

// writeSnapshot saves the document, fsynced, as the snapshot file path
// and returns its size. A snapshot is always a compact frame (EGC2) with
// the final text cached, so a cold open need not replay the snapshot
// itself; unpruned, since a store serves catch-ups of the whole history;
// and uncompressed. Whether a peer can take it verbatim as one catch-up
// frame comes down to its size.
func (s *DocStore) writeSnapshot(path string) (int64, error) {
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return 0, err
	}
	err = s.doc.Save(f, egwalker.SaveOptions{CacheFinalDoc: true})
	size, serr := f.Seek(0, io.SeekCurrent)
	if err == nil {
		err = serr
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return size, err
}

// Compact folds the log down: ensures a snapshot covers all sealed
// segments, then deletes those segments and all older snapshots. The
// surviving on-disk state is one snapshot plus the active WAL tail —
// the paper's compact file format, incrementally maintained.
func (s *DocStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	return s.compactLocked()
}

func (s *DocStore) compactLocked() error {
	if s.eventsSinceSnap > 0 || s.sealedSinceSnap > 0 || s.snapSeq == 0 {
		if err := s.snapshotLocked(); err != nil {
			return err
		}
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".seg"); ok && seq < s.snapSeq {
			s.fs.Remove(filepath.Join(s.dir, e.Name()))
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".egw"); ok && seq < s.snapSeq {
			s.fs.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	syncDir(s.fs, s.dir)
	return nil
}

// DiskUsage reports the document's on-disk footprint: snapshot bytes,
// WAL bytes, and file count.
func (s *DocStore) DiskUsage() (snapBytes, walBytes int64, files int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return 0, 0, 0
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			continue
		}
		if _, ok := parseSeq(e.Name(), "snap-", ".egw"); ok {
			snapBytes += fi.Size()
			files++
		}
		if _, ok := parseSeq(e.Name(), "wal-", ".seg"); ok {
			walBytes += fi.Size()
			files++
		}
	}
	return snapBytes, walBytes, files
}

// Close syncs and releases the store. The document stays fully
// recoverable from disk.
func (s *DocStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loadState() == stateClosed {
		return nil
	}
	s.setStateLocked(stateClosed)
	var err error
	if s.active != nil {
		err = s.syncLocked()
		if cerr := s.active.Close(); err == nil {
			err = cerr
		}
	}
	unlockDir(s.lock)
	return err
}

// Crash simulates an OS-level crash for tests and the fault-injecting
// simulator: every byte written since the last fsync is lost (the
// active segment is truncated back to its synced length), the
// in-memory state is dropped, and the document is recovered from disk
// exactly as a restarted process would. The receiver is unusable
// afterwards; use the returned store.
func (s *DocStore) Crash() (*DocStore, error) {
	s.mu.Lock()
	if s.loadState() != stateClosed {
		s.setStateLocked(stateClosed)
	}
	path := filepath.Join(s.dir, segName(s.activeSeq))
	synced := s.syncedSize
	if s.active != nil {
		s.active.Close()
	}
	unlockDir(s.lock)
	root, docID, agent, opts := s.root, s.docID, s.agent, s.opts
	hadActive := s.active != nil
	s.mu.Unlock()
	if hadActive {
		if err := s.fs.Truncate(path, synced); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return Open(root, docID, agent, opts)
}
