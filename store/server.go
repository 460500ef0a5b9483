package store

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"egwalker"
)

// ServerOptions tune a multi-document host.
type ServerOptions struct {
	// MaxOpenDocs caps how many documents stay materialized in memory
	// (default 64): the LRU cache of full egwalker.Docs layered over
	// the much larger population of journal-only open documents.
	// Beyond it, the least-recently-used idle document sheds its
	// in-memory doc (the journal and live subscriptions keep working);
	// it re-materializes on demand. Documents with in-flight work are
	// never shed.
	MaxOpenDocs int
	// MaxJournalDocs caps how many documents stay open at all (default
	// 1024). A journal-only document costs two file descriptors and a
	// small ID index, so this cap can sit orders of magnitude above
	// MaxOpenDocs; beyond it, the least-recently-used idle document is
	// synced and fully closed. Values below MaxOpenDocs are raised to
	// it.
	MaxJournalDocs int
	// FlushInterval is the group-commit cadence (default 50ms): appends
	// return after the OS write, and a background flusher fsyncs every
	// open document's WAL on this interval — one fsync absorbs any
	// number of appends. Negative means fsync on every commit
	// (strongest durability, lowest throughput).
	FlushInterval time.Duration
	// SnapshotEvery triggers background compaction once a document has
	// journaled that many events since its last snapshot (default
	// 8192; 0 disables automatic compaction).
	SnapshotEvery int
	// Agent names the server's replicas (default "server"). Servers
	// never edit, so the name only matters for debugging.
	Agent string
	// DocOptions are passed to each document's DocStore.
	DocOptions Options
	// Logf, when set, receives operational warnings the background
	// loops cannot return to a caller (fsync failures, compaction
	// failures, resume degradation). Point it at log.Printf in a
	// server binary.
	Logf func(format string, args ...any)
	// OnIngest, when set, is called after a batch from a client or the
	// API (never from a server-to-server replica link) is accepted with
	// at least one new event — the cluster replication tap: the cluster
	// node forwards the batch to the document's other replicas. raw is
	// the uploader's encoded payload (nil for API appends). Called with
	// the document's fan-out lock held, so it must not block; enqueue
	// and return.
	OnIngest func(docID string, events []egwalker.Event, raw []byte)
	// ScrubEvery, when > 0, runs a background integrity scrub over every
	// hosted document on that interval: sealed WAL segments and the
	// active segment's fsynced prefix are re-verified block by block
	// (CRC32-C), snapshots are re-decoded, and damage quarantines the
	// document (read-only salvaged prefix, no writes) until RepairDoc
	// rebuilds it.
	ScrubEvery time.Duration
	// ScrubBytesPerSec paces scrub reads (default 8 MiB/s; < 0
	// unlimited) so a scrub pass never competes with the live path.
	ScrubBytesPerSec int64
	// OnQuarantine, when set, is notified each time a document is found
	// quarantined — opened so, or quarantined by a scrub — the cluster
	// node's repair trigger. The call is synchronous, on the goroutine
	// that found it, with no store lock held, so it must not block.
	OnQuarantine func(docID string, reason error)
	// HandshakeTimeout bounds how long ServeConn waits for a client's
	// hello frame (default 10s; < 0 disables): an accepted connection
	// that never says anything must not pin a goroutine forever.
	HandshakeTimeout time.Duration
	// OutboxBytesPerPeer caps how many queued fan-out bytes one
	// subscriber may buffer (default 1 MiB). A peer over the cap has its
	// queue coalesced (adjacent batches merged and re-marshalled); if it
	// is still over, the peer is severed and reconnects with a resume
	// hello. The old 256-frame channel bounded nothing in bytes; this
	// makes per-connection memory a budget, which is what lets one
	// server hold 10k+ subscribers without a slow minority owning the
	// heap.
	OutboxBytesPerPeer int64
	// OutboxBytesTotal caps queued fan-out bytes across every
	// subscriber of every document (default 256 MiB) — the server-wide
	// backstop that bounds RSS no matter how many peers go slow at
	// once. The live total is the outbox_bytes gauge.
	OutboxBytesTotal int64
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxOpenDocs <= 0 {
		o.MaxOpenDocs = 64
	}
	if o.MaxJournalDocs <= 0 {
		o.MaxJournalDocs = 1024
	}
	if o.MaxJournalDocs < o.MaxOpenDocs {
		o.MaxJournalDocs = o.MaxOpenDocs
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = 50 * time.Millisecond
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 8192
	}
	if o.Agent == "" {
		o.Agent = "server"
	}
	if o.FlushInterval < 0 {
		o.DocOptions.SyncEveryCommit = true
	}
	if o.ScrubBytesPerSec == 0 {
		o.ScrubBytesPerSec = 8 << 20
	}
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	if o.OutboxBytesPerPeer <= 0 {
		o.OutboxBytesPerPeer = 1 << 20
	}
	if o.OutboxBytesTotal <= 0 {
		o.OutboxBytesTotal = 256 << 20
	}
	if o.OutboxBytesTotal < o.OutboxBytesPerPeer {
		o.OutboxBytesTotal = o.OutboxBytesPerPeer
	}
	// A hosted document that turns out corrupt comes up quarantined
	// (salvaged prefix served read-only) instead of unopenable: the
	// server always has the repair machinery on hand.
	o.DocOptions.Quarantine = true
	return o
}

// entry is one hosted document plus its connected peers, in the open
// set from the start of its open until its store has closed. Its life
// (opening, open, closing) moves under the server lock; an acquire that
// finds it opening or closing waits for moved to close and looks again.
// What state the document itself is in is ds's state word.
type entry struct {
	id    string
	life  entryLife
	moved chan struct{}
	ds    *DocStore
	srv   *Server
	// mu serializes ingest+fanout against catch-up cuts and subscribe,
	// so a joining peer misses no events between its catch-up and its
	// first forwarded batch.
	mu       sync.Mutex
	peers    map[int]peerSub // nil until the first subscriber
	nextPeer int

	refs       int
	elem       *list.Element // in the LRU while opening or open
	compacting bool
}

// entryLife is where an entry is in its life in the open set.
type entryLife uint8

const (
	entryOpening entryLife = iota
	entryOpen
	entryClosing
)

// Server hosts many durable documents behind string doc IDs: the
// paper's relay server grown a database. One Server owns one store
// root directory; connections multiplex by document via the netsync
// doc hello (ServeConn). Open documents are journal-only by default —
// write-mostly documents are hosted without ever building their
// egwalker.Doc — and an LRU keeps only the documents that needed
// materializing (text queries, decoded catch-ups, resume diffs,
// compaction) in memory.
type Server struct {
	mu      sync.Mutex
	root    string
	opts    ServerOptions
	metrics *Metrics
	started time.Time
	open    map[string]*entry
	lru     *list.List // front = most recently used; values are *entry
	// quarantined tracks which documents are currently quarantined, by
	// reason, across evictions and reopens: acquire and scrubPass add a
	// document they find quarantined, RepairDoc removes it.
	quarantined map[string]error

	compactCh chan *entry
	done      chan struct{}
	wg        sync.WaitGroup
	closed    bool
}

// NewServer opens (creating if needed) a store root directory and
// starts the background flusher and compactor.
func NewServer(root string, opts ServerOptions) (*Server, error) {
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, err
	}
	s := &Server{
		root:        root,
		opts:        opts.withDefaults(),
		metrics:     &Metrics{},
		started:     time.Now(),
		open:        make(map[string]*entry),
		lru:         list.New(),
		quarantined: make(map[string]error),
		compactCh:   make(chan *entry, 64),
		done:        make(chan struct{}),
	}
	s.wg.Add(2)
	go s.flusher()
	go s.compactor()
	if s.opts.ScrubEvery > 0 {
		s.wg.Add(1)
		go s.scrubber()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// With runs fn against the (pinned) document, opening it if needed.
// The document may be journal-only; DocStore methods that need the
// in-memory doc materialize it on demand.
func (s *Server) With(docID string, fn func(*DocStore) error) error {
	return s.pinned(docID, func(e *entry) error { return fn(e.ds) })
}

// pinned runs fn against the document's entry, pinned and opened.
func (s *Server) pinned(docID string, fn func(*entry) error) error {
	e, err := s.acquire(docID)
	if err != nil {
		return err
	}
	defer s.release(e)
	return fn(e)
}

// Append merges events into the document, journals them, and fans them
// out to any peers connected to it.
func (s *Server) Append(docID string, events []egwalker.Event) error {
	return s.pinned(docID, func(e *entry) error { return e.ingest(&batch{events: events}, -1, false) })
}

// IngestReplica merges a batch received over a cluster replication
// link: events are journaled (raw verbatim when provided) and fanned
// out to local subscribers, but the OnIngest replication tap does not
// fire — replicated data is never re-forwarded, which is what keeps
// the cluster's origin-push topology loop-free.
func (s *Server) IngestReplica(docID string, events []egwalker.Event, raw []byte) error {
	return s.pinned(docID, func(e *entry) error { return e.ingest(&batch{raw: raw, events: events}, -1, true) })
}

// Text returns the document's current text, materializing it if
// needed.
func (s *Server) Text(docID string) (string, error) {
	var text string
	err := s.With(docID, func(ds *DocStore) error {
		if err := ds.Materialize(); err != nil {
			return err
		}
		text = ds.Text()
		return nil
	})
	return text, err
}

// DocIDs lists every document the store root holds, open or not.
func (s *Server) DocIDs() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		// Dot-prefixed directories are never documents (escapeDocID
		// escapes leading dots): .repair-* is an in-flight rebuild,
		// .corrupt-* a damaged tree kept aside for forensics.
		if strings.HasPrefix(ent.Name(), ".") {
			continue
		}
		id, err := unescapeDocID(ent.Name())
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// Healthz reports whether this server can currently accept and persist
// writes: it is not closed and its store root is writable (a probe
// file is created, synced, and removed). The egserve /healthz endpoint
// and cluster fail-over probes are built on it.
func (s *Server) Healthz() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("store: server closed")
	}
	probe := filepath.Join(s.root, ".healthz")
	f, err := os.OpenFile(probe, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("store: root not writable: %w", err)
	}
	_, werr := f.Write([]byte("ok"))
	serr := f.Sync()
	cerr := f.Close()
	os.Remove(probe)
	for _, err := range []error{werr, serr, cerr} {
		if err != nil {
			return fmt.Errorf("store: root not writable: %w", err)
		}
	}
	return nil
}
