package store

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"egwalker"
	"egwalker/netsync"
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
	// OnQuarantine, when set, is notified (on its own goroutine) each
	// time a document transitions into quarantine — the cluster node's
	// repair trigger.
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

// closeDrainTimeout bounds how long Close waits for in-flight
// connections and appends to release their documents before closing
// the stores anyway.
const closeDrainTimeout = 5 * time.Second

// peerSub is one live subscriber of a document: its byte-budgeted
// outbox of marshalled batches and the connection behind it (kept so
// the sever path can close the transport immediately — a writer blocked
// mid-send on a stalled peer would otherwise never observe its outbox
// closing).
type peerSub struct {
	ob   *outbox
	conn io.ReadWriter
}

// entry is one open document plus its connected peers. ds is nil until
// ready is closed (the document is still being opened by the goroutine
// that created the entry); openErr records a failed open. The document
// behind ds is usually journal-only; mat mirrors whether it currently
// holds a materialized doc (maintained by the DocStore's
// materialization hooks, readable without any lock).
type entry struct {
	id       string
	ready    chan struct{}
	openErr  error
	ds       *DocStore
	m        *Metrics
	logf     func(format string, args ...any)
	onIngest func(docID string, events []egwalker.Event, raw []byte)
	mat      atomic.Bool
	// mu serializes ingest+fanout against catch-up cuts and subscribe,
	// so a joining peer misses no events between its catch-up and its
	// first forwarded batch.
	mu       sync.Mutex
	peers    map[int]peerSub // nil until the first subscriber
	nextPeer int
	// obPeer/obTotal are the outbox byte budgets, copied from the
	// server's options at acquire so subscribe needs no back-pointer.
	obPeer  int64
	obTotal int64

	refs       int
	elem       *list.Element
	compacting bool
}

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
	// reason. Maintained across evictions and reopens (the DocStore's
	// onQuarantine hook re-adds on reopen; RepairDoc removes).
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

// acquire pins the document's entry, opening it (journal-only when
// possible) if it is not open. The disk work happens outside the
// server lock — a cold open of one large document must not stall
// appends to every other document — with an opening latch so
// concurrent acquires of the same document share one open. Callers
// must release.
func (s *Server) acquire(docID string) (*entry, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: server closed")
	}
	if e, ok := s.open[docID]; ok {
		e.refs++
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		<-e.ready
		if e.openErr != nil {
			s.release(e)
			return nil, e.openErr
		}
		return e, nil
	}
	e := &entry{id: docID, ready: make(chan struct{}), m: s.metrics, logf: s.logf, onIngest: s.opts.OnIngest, obPeer: s.opts.OutboxBytesPerPeer, obTotal: s.opts.OutboxBytesTotal, refs: 1}
	e.elem = s.lru.PushFront(e)
	s.open[docID] = e
	s.metrics.OpenDocs.Set(int64(len(s.open)))
	s.mu.Unlock()

	// The materialization hooks keep the entry's mat flag and the
	// server's materialized-population metrics exact, whether the doc
	// materializes during open (journal scan fell back), on demand, or
	// is shed by eviction or close. They fire under the DocStore's
	// mutex and touch only atomics.
	docOpts := s.opts.DocOptions
	docOpts.onMaterialize = func(d time.Duration) {
		e.mat.Store(true)
		s.metrics.MaterializedDocs.Add(1)
		s.metrics.LazyMaterializations.Inc()
		s.metrics.MaterializeNs.Observe(d.Nanoseconds())
	}
	docOpts.onDematerialize = func() {
		e.mat.Store(false)
		s.metrics.MaterializedDocs.Add(-1)
	}
	docOpts.onReplay = func(continued, rebuilt, silent uint64, retained int) {
		s.metrics.SectionsContinued.Add(int64(continued))
		s.metrics.SectionsRebuilt.Add(int64(rebuilt))
		s.metrics.SilentReplayEvents.Add(int64(silent))
		s.metrics.RetainedTrackerItems.Add(int64(retained))
	}
	docOpts.onLogBytes = func(delta int) {
		s.metrics.MaterializedLogBytes.Add(int64(delta))
	}
	// Both hooks fire under the DocStore's mutex; quarantine
	// bookkeeping needs the server lock, so it hops to a goroutine
	// (Close holds s.mu while closing stores — taking s.mu here would
	// invert that order).
	docOpts.onQuarantine = func(reason error) {
		go s.noteQuarantine(docID, reason)
	}
	docOpts.onDegrade = func(err error) {
		s.metrics.WALWriteErrors.Inc()
	}

	// A just-evicted store for this document may still be fsync-closing
	// (eviction closes outside the server lock); its directory flock
	// clears momentarily, so retry briefly rather than failing.
	wasQuarantined := s.IsQuarantined(docID)
	start := time.Now()
	var ds *DocStore
	var err error
	for attempt := 0; ; attempt++ {
		ds, err = OpenLazy(s.root, docID, s.opts.Agent, docOpts)
		if err == nil || !errors.Is(err, ErrLocked) || attempt >= 100 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Open-time salvage damage counts toward corrupt_blocks exactly
	// once — a reopen of a document already in the quarantine set
	// re-salvages the same damage and must not count it again.
	if err == nil && !wasQuarantined {
		if q, _ := ds.Quarantined(); q {
			if n := ds.Salvage().CorruptBlocks; n > 0 {
				s.metrics.CorruptBlocks.Add(int64(n))
			}
		}
	}

	s.mu.Lock()
	if err == nil && s.closed {
		ds.Close()
		ds, err = nil, fmt.Errorf("store: server closed")
	}
	if err != nil {
		e.openErr = err
		delete(s.open, docID)
		s.lru.Remove(e.elem)
		s.metrics.OpenDocs.Set(int64(len(s.open)))
		s.mu.Unlock()
		close(e.ready)
		return nil, err
	}
	e.ds = ds
	s.metrics.ColdOpens.Inc()
	s.metrics.OpenNs.Observe(time.Since(start).Nanoseconds())
	demat, victims := s.evictLocked()
	s.mu.Unlock()
	close(e.ready)
	s.applyEvictions(demat, victims)
	return e, nil
}

func (s *Server) release(e *entry) {
	s.mu.Lock()
	e.refs--
	demat, victims := s.evictLocked()
	s.mu.Unlock()
	s.applyEvictions(demat, victims)
}

// evictLocked picks eviction work and returns it for the caller to
// perform after dropping s.mu (dematerializing syncs, closing fsyncs —
// disk work must not stall the whole server). Two tiers: documents
// holding a materialized doc beyond MaxOpenDocs are dematerialized
// (LRU-idle first; each is pinned so it cannot be closed underneath
// the demat); documents open beyond MaxJournalDocs are fully closed
// and unlinked. Pinned documents are skipped, so both populations may
// transiently exceed their caps.
func (s *Server) evictLocked() (demat []*entry, victims []*DocStore) {
	over := s.metrics.MaterializedDocs.Load() - int64(s.opts.MaxOpenDocs)
	if over > 0 {
		for el := s.lru.Back(); el != nil && over > 0; el = el.Prev() {
			if e := el.Value.(*entry); e.refs == 0 && e.ds != nil && e.mat.Load() {
				e.refs++ // released by applyEvictions
				demat = append(demat, e)
				over--
			}
		}
	}
	for s.lru.Len() > s.opts.MaxJournalDocs {
		var victim *entry
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry); e.refs == 0 && e.ds != nil {
				victim = e
				break
			}
		}
		if victim == nil {
			break
		}
		s.lru.Remove(victim.elem)
		delete(s.open, victim.id)
		victims = append(victims, victim.ds)
	}
	if n := len(demat) + len(victims); n > 0 {
		s.metrics.Evictions.Add(int64(n))
		s.metrics.OpenDocs.Set(int64(len(s.open)))
	}
	return demat, victims
}

// applyEvictions performs eviction work outside s.mu: closes fully
// evicted stores and dematerializes cache-evicted ones. A document
// that refuses to dematerialize (buffered causal gap, sticky write
// error) is fully closed instead — exactly what the old
// whole-document eviction did to it.
func (s *Server) applyEvictions(demat []*entry, victims []*DocStore) {
	for _, ds := range victims {
		ds.Close()
	}
	for _, e := range demat {
		if err := e.ds.dematerialize(); err != nil {
			s.mu.Lock()
			if e.refs == 1 { // only our pin: safe to unlink and close
				s.lru.Remove(e.elem)
				delete(s.open, e.id)
				s.metrics.OpenDocs.Set(int64(len(s.open)))
				e.refs--
				s.mu.Unlock()
				e.ds.Close()
				continue
			}
			// Someone re-acquired meanwhile; leave it materialized.
			e.refs--
			s.mu.Unlock()
			continue
		}
		s.release(e) // may demat/close the next-colder entry
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

// ingest journals a batch and forwards it to every peer except the
// sender, unless it added no event and parked none: then every peer has
// it. The batch travels encoded: its events are decoded, once, only if
// the document is materialized or the replication tap is set (b.raw is
// nil for API appends, which arrive decoded). replica marks a batch from
// a server-to-server replication link: it fans out to local subscribers
// but never fires the OnIngest tap, since the origin pushed it to every
// replica and re-forwarding would echo it around the cluster forever.
func (e *entry) ingest(b *batch, fromPeer int, replica bool) error {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	fresh, parked, err := e.ds.ingestBatch(b)
	if err != nil {
		return err
	}
	if fresh > 0 && !replica && e.onIngest != nil {
		events, err := b.Events()
		if err != nil {
			return err
		}
		e.onIngest(e.id, events, b.raw)
	}
	// ApplyNs from call entry, so per-document lock contention (many
	// writers on one hot document) shows up in the latency it causes.
	e.m.ApplyNs.Observe(time.Since(start).Nanoseconds())
	e.m.EventsApplied.Add(int64(b.n))
	e.m.BatchesApplied.Inc()
	e.m.FanoutBatchEvents.Observe(int64(b.n))
	if replica {
		e.m.ReplicaBatchesIn.Inc()
		e.m.ReplicaEventsIn.Add(int64(b.n))
	}
	if fresh == 0 && !parked {
		return nil
	}
	return e.fanoutLocked(b, fromPeer)
}

// fanoutLocked forwards a batch to every subscriber except fromPeer (-1:
// all), with e.mu held; RepairDoc pushes a repair's diff through it too.
// An upload goes verbatim (every subscriber decodes both encodings); a
// batch that arrived decoded is marshalled once, by MarshalBatches.
func (e *entry) fanoutLocked(b *batch, fromPeer int) error {
	raws := [][]byte{b.raw}
	if b.raw == nil {
		events, err := b.Events()
		if err != nil {
			return err
		}
		if raws, err = egwalker.MarshalBatches(events); err != nil {
			return err
		}
	}
	for pid, p := range e.peers {
		if pid == fromPeer {
			continue
		}
		depth, ok := p.ob.push(raws)
		e.m.OutboxDepth.Observe(int64(depth))
		if !ok {
			// Slow peer: over its byte budget even after coalescing, so
			// it would silently miss these events forever (the live
			// protocol has no anti-entropy). Sever it instead; the
			// client reconnects with a summary hello and catches up
			// incrementally.
			e.severLocked(pid)
		}
	}
	return nil
}

// severLocked disconnects one subscriber: removes it from the peer
// map, drops its queued outbox (waking and ending its writer), and
// closes the transport so a writer stalled mid-send and the peer's
// reader both unblock. Called with e.mu held. Guarded on map
// membership so racing sever paths (fan-out overflow vs. a connection
// close already in flight) account the peer exactly once.
func (e *entry) severLocked(pid int) {
	p, ok := e.peers[pid]
	if !ok {
		return
	}
	delete(e.peers, pid)
	p.ob.close(true)
	severConn(p.conn)
	e.m.PeersSevered.Inc()
	e.m.Subscribers.Add(-1)
}

// subPlan is what subscribe hands ServeConn: the peer's registration
// plus its catch-up, which is either a block cut (stream encoded
// frames verbatim off disk — the zero-materialization path) or a
// decoded event batch.
type subPlan struct {
	id     int
	outbox *outbox
	cut    *BlockCut
	events []egwalker.Event
}

// subscribe registers a peer and plans its catch-up: nothing ingested
// after the cut escapes the outbox, so the peer sees every event
// exactly once. A hello with a non-empty summary gets the exact diff —
// correct even when this server lacks some of the peer's events, so it
// never resends history; a diff that cannot be built degrades to a
// full catch-up, counted as a resume fallback. A full catch-up streams
// the document's encoded blocks without materializing it where the
// store can cut them, and sends the decoded history otherwise.
func (e *entry) subscribe(conn io.ReadWriter, h netsync.Hello) (*subPlan, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextPeer
	e.nextPeer++
	outbox := newOutbox(e.obPeer, e.obTotal, &e.m.OutboxBytes, &e.m.CoalescedFrames)
	if e.peers == nil {
		e.peers = make(map[int]peerSub)
	}
	e.peers[id] = peerSub{ob: outbox, conn: conn}
	e.m.Subscribers.Add(1)
	if len(h.Summary) > 0 {
		catchup, err := e.ds.EventsSinceSummary(h.Summary)
		if err == nil {
			e.m.SummaryResumes.Inc()
			e.m.Resumes.Inc()
			e.m.ResumeEvents.Add(int64(len(catchup)))
			return &subPlan{id: id, outbox: outbox, events: catchup}, nil
		}
		// A full catch-up is always correct — but say so, because a
		// fleet of clients silently re-downloading full histories is a
		// resume regression an operator needs to see.
		e.m.ResumeFallbacks.Inc()
		e.logf("store: summary resume for %q degraded to full catch-up: %v", e.id, err)
	}
	if cut, ok := e.ds.CutForServe(); ok {
		e.m.BlockServes.Inc()
		e.m.BlockServeEvents.Add(int64(cut.events))
		return &subPlan{id: id, outbox: outbox, cut: cut}, nil
	}
	snapshot, err := e.ds.EventsSince(nil)
	if err != nil {
		// No catch-up can be built (materialization failed); undo the
		// registration — this connection is unusable.
		delete(e.peers, id)
		outbox.close(true)
		e.m.Subscribers.Add(-1)
		return nil, err
	}
	e.m.FullSnapshots.Inc()
	e.m.SnapshotEvents.Add(int64(len(snapshot)))
	return &subPlan{id: id, outbox: outbox, events: snapshot}, nil
}

// severConn force-closes a peer connection when the transport supports
// it, unblocking any read pending on it.
func severConn(conn io.ReadWriter) {
	if c, ok := conn.(io.Closer); ok {
		c.Close()
	}
}

func (e *entry) unsubscribe(id int) {
	e.mu.Lock()
	p, ok := e.peers[id]
	delete(e.peers, id)
	if ok {
		e.m.Subscribers.Add(-1)
	}
	e.mu.Unlock()
	if ok {
		// Graceful close: the writer drains what is already queued
		// before exiting. A peer severed earlier is gone from the map,
		// so this path cannot double-account it.
		p.ob.close(false)
	}
}

// ServeConn handles one client connection: it reads the doc hello
// naming which hosted document the peer wants, sends the catch-up
// (everything, or — when the hello carries a version
// summary — only the events the peer is missing), and thereafter
// journals and fans out every batch the peer uploads — netsync.Relay
// semantics, multiplexed over every document in the store and durable
// across restarts. A hello of a retired generation is refused before
// anything is written back.
//
// A cold join is streamed as the document's encoded blocks (snapshot
// frame + WAL blocks) verbatim off disk, without materializing the
// document at all. Run ServeConn in its own goroutine per connection;
// it returns when the peer disconnects.
func (s *Server) ServeConn(conn io.ReadWriter) error {
	// A peer that connects and never speaks must not pin this goroutine
	// forever: the hello read gets a deadline when the transport has
	// one, cleared once the handshake completes (the live stream is
	// allowed to idle indefinitely).
	d, hasDeadline := conn.(readDeadliner)
	if hasDeadline && s.opts.HandshakeTimeout > 0 {
		d.SetReadDeadline(time.Now().Add(s.opts.HandshakeTimeout))
	}
	h, err := netsync.ReadHello(conn)
	if err != nil {
		return err
	}
	if hasDeadline && s.opts.HandshakeTimeout > 0 {
		d.SetReadDeadline(time.Time{})
	}
	return s.ServeHello(conn, h)
}

// readDeadliner is the slice of net.Conn the handshake timeout needs.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// ServeHello is ServeConn after the doc hello has already been read —
// the entry point for routers (cluster nodes) that parse the hello
// themselves to decide whether this server owns the document before
// handing the connection over. A hello flagged as a replica link gets
// the server-to-server treatment: a version exchange instead of a
// fan-out subscription (see serveReplica).
func (s *Server) ServeHello(conn io.ReadWriter, h netsync.Hello) error {
	s.metrics.ConnCount.Add(1)
	defer s.metrics.ConnCount.Add(-1)
	if h.Replica {
		return s.serveReplica(conn, h)
	}
	pc := netsync.NewPeerConn(conn)
	e, err := s.acquire(h.DocID)
	if err != nil {
		return err
	}
	defer s.release(e)

	plan, err := e.subscribe(conn, h)
	if err != nil {
		return err
	}
	defer e.unsubscribe(plan.id)

	if plan.cut != nil {
		err = e.streamCatchup(pc, plan.cut)
	} else {
		err = pc.SendEvents(plan.events)
	}
	if err != nil {
		return err
	}

	writeErr := make(chan error, 1)
	go func() {
		var raws [][]byte
		for {
			var ok bool
			if raws, ok = plan.outbox.drain(raws); !ok {
				// Outbox closed and empty: normal teardown, or the peer
				// was dropped as too slow (ingest). Sever the connection
				// so a Recv blocked on an idle diverged client unblocks
				// and the client reconnects for a fresh snapshot.
				writeErr <- nil
				severConn(conn)
				return
			}
			// Everything queued ships as one writev-style burst: the
			// frames hit the wire under a single flush instead of one
			// syscall each — the difference between 10k writers making
			// progress and 10k writers thrashing the scheduler.
			if err := pc.SendRawBatch(raws); err != nil {
				writeErr <- err
				// Frames queued after this point can never be sent;
				// drop them so the global byte ledger is released now,
				// not when unsubscribe eventually runs.
				plan.outbox.close(true)
				severConn(conn)
				return
			}
		}
	}()

	for {
		select {
		case err := <-writeErr:
			return err
		default:
		}
		// Uploads stay encoded: the payload is validated where it is
		// admitted (DocStore.ingestBatch) and decoded only if something
		// on the way needs its events.
		f, err := pc.RecvFrameRaw()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch f.Kind {
		case netsync.FrameEvents:
			if err := e.ingest(&batch{raw: f.Raw}, plan.id, false); err != nil {
				return err
			}
		case netsync.FrameDone:
			return nil
		default:
			// (e.id, not h.DocID: a use of h here would keep the hello — its
			// summary, its payload — alive for as long as the peer stays.)
			return fmt.Errorf("store: %q: unexpected frame kind %d from a client", e.id, f.Kind)
		}
	}
}

// streamCatchup sends a block cut's frames to a joining peer, falling
// back to the decoded full history if the stream breaks (concurrent
// compaction can delete a cut's files mid-stream; the peer deduplicates
// whatever blocks already arrived).
func (e *entry) streamCatchup(pc *netsync.PeerConn, cut *BlockCut) error {
	sent, serr := e.ds.StreamBlocks(cut, pc.SendRaw)
	if serr == nil {
		if sent == 0 {
			// Empty document: the contract is that the first events
			// frame is the snapshot, even when empty.
			return pc.SendEvents(nil)
		}
		return nil
	}
	e.logf("store: block catch-up for %q fell back to decoded events after %d frames: %v", e.id, sent, serr)
	snapshot, err := e.ds.EventsSince(nil)
	if err != nil {
		return serr
	}
	e.m.FullSnapshots.Inc()
	e.m.SnapshotEvents.Add(int64(len(snapshot)))
	return pc.SendEvents(snapshot)
}

// serveReplica handles a server-to-server replication link: the peer
// node presented its run-length version summary; we answer with ours,
// followed by the events the peer is missing (so the link establishes
// a full bidirectional anti-entropy round — the peer pushes back what
// we are missing, netsync.Sync's exchange embedded in the relay
// protocol). Thereafter the peer pushes batches its clients upload
// (journaled and fanned out to our local subscribers, but never
// re-replicated — the origin pushes to every replica itself) and sends
// fresh summaries on a timer, which converge a lagging side from its
// journal without full retransfer.
func (s *Server) serveReplica(conn io.ReadWriter, h netsync.Hello) error {
	pc := netsync.NewPeerConn(conn)
	e, err := s.acquire(h.DocID)
	if err != nil {
		return err
	}
	defer s.release(e)
	if err := e.replicaExchange(pc, h.Summary); err != nil {
		return err
	}
	for {
		f, err := pc.RecvFrameRaw()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch f.Kind {
		case netsync.FrameEvents:
			if err := e.ingest(&batch{raw: f.Raw}, -1, true); err != nil {
				return err
			}
		case netsync.FrameSummary:
			if err := e.replicaExchange(pc, f.Summary); err != nil {
				return err
			}
		case netsync.FrameDone:
			return nil
		default:
			return fmt.Errorf("store: replica link for %q: unexpected frame kind %d", h.DocID, f.Kind)
		}
	}
}

// replicaExchange answers one anti-entropy round on a replica link:
// send our summary, then the events the peer is missing. The exchange
// is exact in both directions — the peer's event set is fully
// described, so nothing it holds is re-sent, and it can compute an
// exact push-back from our summary; when both sides are converged a
// journal-only document answers without materializing at all.
func (e *entry) replicaExchange(pc *netsync.PeerConn, theirs egwalker.VersionSummary) error {
	ours, err := e.ds.Summary()
	if err != nil {
		return err
	}
	catchup, err := e.ds.EventsSinceSummary(theirs)
	if err != nil {
		return err
	}
	if err := pc.SendSummary(ours); err != nil {
		return err
	}
	e.m.ReplicaExchanges.Inc()
	e.m.ReplicaEventsOut.Add(int64(len(catchup)))
	return pc.SendEvents(catchup)
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

// noteQuarantine records a document's transition into quarantine and
// notifies the OnQuarantine listener. Runs on its own goroutine (the
// DocStore hook fires under the store mutex).
func (s *Server) noteQuarantine(docID string, reason error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	_, known := s.quarantined[docID]
	s.quarantined[docID] = reason
	s.metrics.QuarantinedDocs.Set(int64(len(s.quarantined)))
	s.mu.Unlock()
	if !known {
		s.logf("store: quarantined %q: %v", docID, reason)
	}
	if s.opts.OnQuarantine != nil {
		s.opts.OnQuarantine(docID, reason)
	}
}

func (s *Server) noteRepaired(docID string) {
	s.mu.Lock()
	delete(s.quarantined, docID)
	s.metrics.QuarantinedDocs.Set(int64(len(s.quarantined)))
	s.mu.Unlock()
}

// IsQuarantined reports whether the document is currently quarantined.
func (s *Server) IsQuarantined(docID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.quarantined[docID]
	return ok
}

// QuarantinedDocIDs lists the currently quarantined documents — what a
// cluster node's repair loop re-enqueues every anti-entropy tick.
func (s *Server) QuarantinedDocIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.quarantined))
	for id := range s.quarantined {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// QuarantinedCount reports how many documents are quarantined — the
// degraded-health signal egserve's /healthz surfaces.
func (s *Server) QuarantinedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.quarantined)
}

// RepairDoc rebuilds a quarantined document and re-admits it. fetch,
// when non-nil, is handed the salvaged prefix's version summary and
// must return the exact diff from a live replica (the events the
// summary does not cover); nil fetch performs a salvage-only repair —
// single-node operation keeps the valid prefix and the loss is
// reported in the returned RepairInfo. On success the repaired diff is
// fanned out to the document's live subscribers and the quarantine
// flag clears.
func (s *Server) RepairDoc(docID string, fetch func(egwalker.VersionSummary) ([]egwalker.Event, error)) (RepairInfo, error) {
	e, err := s.acquire(docID)
	if err != nil {
		return RepairInfo{}, err
	}
	defer s.release(e)
	if q, _ := e.ds.Quarantined(); !q {
		return RepairInfo{}, fmt.Errorf("store: %s is not quarantined", docID)
	}
	var extra []egwalker.Event
	if fetch != nil {
		sum, err := e.ds.Summary()
		if err != nil {
			return RepairInfo{}, err
		}
		if extra, err = fetch(sum); err != nil {
			s.metrics.RepairFailures.Inc()
			return RepairInfo{}, fmt.Errorf("store: repair fetch for %s: %w", docID, err)
		}
	}
	// Repair and fan-out under the entry lock, so a subscriber joining
	// mid-repair either sees the repaired history in its catch-up or
	// receives the diff through its outbox — never neither.
	e.mu.Lock()
	info, err := e.ds.Repair(extra)
	if err != nil {
		e.mu.Unlock()
		s.metrics.RepairFailures.Inc()
		return info, err
	}
	if len(extra) > 0 {
		if ferr := e.fanoutLocked(&batch{events: extra}, -1); ferr != nil {
			s.logf("store: fanning out repair diff for %q: %v", docID, ferr)
		}
	}
	e.mu.Unlock()
	s.metrics.Repairs.Inc()
	s.metrics.RepairEvents.Add(int64(info.Fetched))
	s.noteRepaired(docID)
	s.logf("store: repaired %q: %d salvaged + %d fetched events (lost: %d blocks, %d bytes)",
		docID, info.Salvaged, info.Fetched, info.Salvage.CorruptBlocks, info.Salvage.LostBytes)
	return info, nil
}

// scrubber is the background integrity loop: every ScrubEvery it walks
// all hosted documents and re-verifies their on-disk state, paced by a
// shared byte budget. Damage quarantines the document via the
// DocStore's hook, which feeds OnQuarantine (the cluster repair path).
func (s *Server) scrubber() {
	defer s.wg.Done()
	lim := newScrubLimiter(s.opts.ScrubBytesPerSec)
	t := time.NewTicker(s.opts.ScrubEvery)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.scrubPass(lim)
		}
	}
}

func (s *Server) scrubPass(lim *scrubLimiter) {
	ids, err := s.DocIDs()
	if err != nil {
		s.logf("store: scrub pass: %v", err)
		return
	}
	for _, id := range ids {
		select {
		case <-s.done:
			return
		default:
		}
		e, err := s.acquire(id)
		if err != nil {
			s.logf("store: scrub open %q: %v", id, err)
			continue
		}
		rep, err := e.ds.scrub(lim)
		s.metrics.ScrubBytes.Add(rep.Bytes)
		if len(rep.Damage) > 0 {
			s.metrics.CorruptBlocks.Add(int64(len(rep.Damage)))
			for _, d := range rep.Damage {
				s.logf("store: scrub %q: %s damage in %s at %d: %v", id, d.Kind, d.File, d.Off, d.Err)
			}
		}
		if err != nil {
			s.logf("store: scrub %q: %v", id, err)
		}
		s.release(e)
	}
	s.metrics.ScrubPasses.Inc()
}

// flusher is the group-commit loop: one fsync per open document per
// interval, amortizing durability across every append in the window.
// It runs even when FlushInterval is negative (per-commit fsync mode,
// where Sync below is a no-op) because it is also what feeds
// compaction pressure to the background compactor.
func (s *Server) flusher() {
	defer s.wg.Done()
	interval := s.opts.FlushInterval
	if interval < 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	// Outbox depths are also sampled on every fan-out send, but a send
	// that never happens samples nothing: an idle-but-full outbox (the
	// writer stalled, no new ingest on that document) was invisible.
	// Piggyback a periodic sweep on the flusher, roughly once a second.
	sampleEvery := int(time.Second / interval)
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	for ticks := 0; ; {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.flushOnce()
			if ticks++; ticks%sampleEvery == 0 {
				s.sampleOutboxes()
			}
		}
	}
}

// sampleOutboxes records every live subscriber's outbox depth, so
// queues that are deep but quiescent still show up in OutboxDepth.
func (s *Server) sampleOutboxes() {
	for _, e := range s.pinOpen() {
		e.mu.Lock()
		for _, p := range e.peers {
			s.metrics.OutboxDepth.Observe(int64(p.ob.depth()))
		}
		e.mu.Unlock()
		s.release(e)
	}
}

// pinOpen pins every opened document (one still opening is skipped):
// the caller releases each entry when done with it.
func (s *Server) pinOpen() []*entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	pinned := make([]*entry, 0, len(s.open))
	for _, e := range s.open {
		if e.ds != nil {
			e.refs++
			pinned = append(pinned, e)
		}
	}
	return pinned
}

func (s *Server) flushOnce() {
	for _, e := range s.pinOpen() {
		// A failed fsync turns the DocStore fail-stop (sticky write
		// error); surface it here too so the operator learns before the
		// next append bounces.
		// Drain the commit counter before the fsync so the batch size
		// reflects what this fsync makes durable (events landing during
		// the fsync are attributed to the next window).
		batch := e.ds.takeUnsyncedEvents()
		start := time.Now()
		err := e.ds.Sync()
		s.metrics.FsyncNs.Observe(time.Since(start).Nanoseconds())
		if err != nil {
			s.metrics.FsyncErrors.Inc()
			s.logf("store: fsync %q: %v", e.id, err)
		} else if batch > 0 && !s.opts.DocOptions.SyncEveryCommit {
			// In per-commit-fsync mode every commit fsyncs itself and
			// Sync here is a no-op: the amortization is 1 by
			// construction, so recording the window total would invert
			// the signal.
			s.metrics.CommitBatchEvents.Observe(int64(batch))
		}
		if s.opts.SnapshotEvery > 0 && e.ds.unsnapshottedEvents() >= s.opts.SnapshotEvery {
			s.scheduleCompact(e) // takes its own pin
		}
		s.release(e)
	}
}

// scheduleCompact hands a document to the background compactor, at
// most one outstanding request per document.
func (s *Server) scheduleCompact(e *entry) {
	s.mu.Lock()
	if s.closed || e.compacting {
		s.mu.Unlock()
		return
	}
	e.compacting = true
	e.refs++
	s.mu.Unlock()
	select {
	case s.compactCh <- e:
	default:
		// Compactor saturated; retry next flush. The rollback goes
		// through release so the unpin runs eviction like any other —
		// an inline refs-- here once left over-cap documents pinned
		// until some unrelated release happened by.
		s.mu.Lock()
		e.compacting = false
		s.mu.Unlock()
		s.release(e)
	}
}

func (s *Server) compactor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case e := <-s.compactCh:
			start := time.Now()
			if err := e.ds.Compact(); err != nil {
				s.logf("store: compacting %q: %v", e.id, err)
			} else {
				s.metrics.Compactions.Inc()
				s.metrics.CompactNs.Observe(time.Since(start).Nanoseconds())
			}
			s.mu.Lock()
			e.compacting = false
			s.mu.Unlock()
			s.release(e)
		}
	}
}

// Close stops the background loops, severs live peer connections, and
// — after in-flight work has drained (bounded wait) — syncs and
// closes every open document. Closing a store out from under an
// in-flight Apply was a real race; Close now waits for every pin to
// release (severed connections release theirs promptly) before
// touching the stores.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()

	// Queued compactions each hold a pin the stopped compactor will
	// never release.
drainQueue:
	for {
		select {
		case e := <-s.compactCh:
			s.mu.Lock()
			e.compacting = false
			e.refs--
			s.mu.Unlock()
		default:
			break drainQueue
		}
	}
drain:
	for deadline := time.Now().Add(closeDrainTimeout); ; {
		s.mu.Lock()
		busy := 0
		for _, e := range s.open {
			if e.refs > 0 {
				busy++
			}
			e.mu.Lock()
			for _, p := range e.peers {
				severConn(p.conn)
			}
			e.mu.Unlock()
		}
		s.mu.Unlock()
		if busy == 0 || time.Now().After(deadline) {
			break drain
		}
		time.Sleep(5 * time.Millisecond)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, e := range s.open {
		if e.ds == nil {
			continue // in-flight opener observes s.closed and cleans up
		}
		if e.refs > 0 {
			s.logf("store: closing %q with %d refs still held", e.id, e.refs)
		}
		if cerr := e.ds.Close(); err == nil {
			err = cerr
		}
	}
	s.open = map[string]*entry{}
	s.lru.Init()
	s.metrics.OpenDocs.Set(0)
	return err
}
