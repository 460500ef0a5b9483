// Package sim is a deterministic multi-replica network simulator with a
// convergence oracle. It exists to exercise the paper's core claim —
// any two replicas that have seen the same events converge to identical
// text — far beyond hand-written two- and three-peer tests: N replicas
// are driven by seeded randomized edit scripts and exchange events
// through a virtual network that injects the failure modes real
// deployments hit (latency and reordering, loss with retransmission,
// duplication, partitions that later heal, and long offline divergence).
//
// Everything is driven by a single *rand.Rand and a single goroutine
// over a virtual clock, so a scenario is a pure function of its Config:
// re-running with the same seed reproduces the identical event delivery
// order, message fates, and final texts. That makes failures replayable
// — a failing seed is a permanent regression test.
//
// After the network quiesces the oracle (oracle.go) checks that every
// replica's text is identical, equal to an independent replay of the
// merged event graph through core.ReplayText, equal to the reference
// list CRDT's merge of the same history, and stable under Save/Load and
// Fork/Merge round-trips.
package sim

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"egwalker"
	"egwalker/internal/fsys"
	"egwalker/store"
)

// Faults selects which failure modes the virtual network injects.
// The zero value is a perfect network: every message is delivered,
// in order, with one tick of latency.
type Faults struct {
	// Latency delivers each message after a random delay in
	// [MinLatency, MaxLatency] ticks. Because delays are independent,
	// messages between the same pair of replicas are reordered freely.
	Latency bool
	// Drop discards each delivery attempt with probability DropProb.
	// The sender retransmits after RetransmitDelay ticks; the final
	// attempt (MaxAttempts) always succeeds, modelling a reliable
	// transport that retries until acknowledged.
	Drop bool
	// Duplicate delivers an extra copy of a message with probability
	// DupProb, at an independently drawn later time.
	Duplicate bool
	// Partition splits the replicas into two groups for stretches of
	// the run. Messages across the cut are parked and delivered when
	// the partition heals (TCP reconnect + replay).
	Partition bool
	// CrashRestart gives every replica a durable store (package store:
	// segmented WAL + snapshots) and kills replicas at scheduled points
	// in the run: a crash loses everything written since the replica's
	// last fsync (which happens when it broadcasts), the process stays
	// down for CrashDowntime ticks, then restarts by recovering
	// snapshot + WAL tail from disk and running reconnect anti-entropy
	// with its peers. Requires Config.PersistDir.
	CrashRestart bool
}

// Config fully determines a simulation run.
type Config struct {
	Seed     int64
	Replicas int // number of replicas (the oracle needs >= 2)
	Events   int // total local edits to generate across all replicas

	Script ScriptConfig
	Faults Faults

	// MinLatency/MaxLatency bound message delay in ticks when
	// Faults.Latency is set (defaults 1 and 20).
	MinLatency, MaxLatency int
	// DropProb is the per-attempt loss probability (default 0.3);
	// MaxAttempts bounds retransmissions (default 5); RetransmitDelay
	// is the resend timeout in ticks (default 15).
	DropProb        float64
	MaxAttempts     int
	RetransmitDelay int
	// DupProb is the duplication probability (default 0.2).
	DupProb float64
	// PartitionCount/PartitionLen control the partition schedule:
	// PartitionCount windows (default 3) open as edit progress crosses
	// evenly spaced thresholds — so short and long runs alike get
	// partitioned — and each heals after PartitionLen ticks (default 40).
	PartitionCount, PartitionLen int
	// FlushEvery is how many ticks a replica buffers local edits before
	// broadcasting them (default 3). Larger values mean burstier,
	// longer-diverged histories.
	FlushEvery int

	// CrashCount/CrashDowntime control the crash-restart schedule when
	// Faults.CrashRestart is set: CrashCount crashes (default 2) fire
	// as edit progress crosses evenly spaced thresholds, each keeping
	// the victim down for CrashDowntime ticks (default 30). PersistDir
	// is the directory replica stores live under (a fresh temp dir per
	// run; the caller owns cleanup).
	CrashCount, CrashDowntime int
	PersistDir                string

	// SkipOracle runs the network without convergence checking
	// (used by benchmarks that time the run itself).
	SkipOracle bool
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 8
	}
	if c.Events <= 0 {
		c.Events = 1000
	}
	if c.MinLatency == 0 {
		c.MinLatency = 1
	}
	if c.MaxLatency == 0 {
		c.MaxLatency = 20
	}
	if c.MaxLatency < c.MinLatency {
		c.MaxLatency = c.MinLatency
	}
	if c.DropProb == 0 {
		c.DropProb = 0.3
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 5
	}
	if c.RetransmitDelay == 0 {
		c.RetransmitDelay = 15
	}
	if c.DupProb == 0 {
		c.DupProb = 0.2
	}
	if c.PartitionCount == 0 {
		c.PartitionCount = 3
	}
	if c.PartitionLen == 0 {
		c.PartitionLen = 40
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = 3
	}
	if c.CrashCount == 0 {
		c.CrashCount = 2
	}
	if c.CrashDowntime == 0 {
		c.CrashDowntime = 30
	}
	c.Script = c.Script.withDefaults()
	return c
}

// Stats counts what the virtual network did during a run.
type Stats struct {
	Ticks       int64
	Edits       int // local edits generated
	Messages    int // batches enqueued (including retransmits and dups)
	Delivered   int // batches applied to a replica
	Dropped     int // delivery attempts lost
	Retransmits int
	Duplicates  int
	Parked      int // batches held back by a partition
	Partitions  int // partition windows opened
	Crashes     int // crash-restart cycles (crash-restart mode)
	// ReplayedEvents counts events recovered from disk across all
	// crash restarts (snapshot events excluded).
	ReplayedEvents int
}

// Result is what a simulation run produced.
type Result struct {
	Config Config
	Stats  Stats
	// Text is the converged document text (of replica 0).
	Text string
	// Docs are the replicas after quiescence, for further inspection.
	Docs []*egwalker.Doc
	// DeliveryLog records every applied delivery in order, as compact
	// strings; two runs with the same Config must produce identical
	// logs (see TestDeterminism).
	DeliveryLog []string
}

// message is one batch of events in flight from one replica to another.
type message struct {
	seq      uint64 // enqueue order, tie-breaks equal delivery times
	from, to int
	events   []egwalker.Event
	at       int64 // virtual delivery time
	attempts int   // delivery attempts so far (drop mode)
}

// msgHeap is a min-heap on (at, seq): virtual time, then enqueue order.
type msgHeap []*message

func (h msgHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *msgHeap) push(m *message) {
	*h = append(*h, m)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *msgHeap) pop() *message {
	old := *h
	m := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.less(l, s) {
			s = l
		}
		if r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return m
}

// Sim is one simulation in progress. Create with New, drive with Run
// (or Step for custom loops).
type Sim struct {
	cfg Config
	rng *rand.Rand

	now   int64
	seq   uint64
	queue msgHeap

	docs          []*egwalker.Doc
	scripts       []*script
	lastBroadcast []egwalker.Version
	offlineUntil  []int64

	// Crash-restart state (nil / unused unless Faults.CrashRestart):
	// stores[i] journals replica i; docs[i] aliases stores[i].Doc();
	// faults[i] is the injectable fault layer every file operation of
	// replica i's store goes through, so scenarios can flip bits and
	// fail writes deterministically.
	stores       []*store.DocStore
	faults       []*fsys.FaultFS
	crashedUntil []int64

	// Partition state: group[i] in {0,1}; healAt is when it ends.
	partitioned bool
	group       []int
	healAt      int64
	parked      []*message

	stats Stats
	log   []string
}

// New prepares a simulation from cfg (missing fields get defaults).
// With Faults.CrashRestart set, NewPersistent must be used instead
// (store opening can fail); New panics in that case to catch misuse.
func New(cfg Config) *Sim {
	s, err := NewPersistent(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewPersistent prepares a simulation, opening per-replica durable
// stores when Faults.CrashRestart is set.
func NewPersistent(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	s := &Sim{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Faults.CrashRestart && cfg.PersistDir == "" {
		return nil, fmt.Errorf("sim: CrashRestart requires Config.PersistDir")
	}
	for i := 0; i < cfg.Replicas; i++ {
		agent := fmt.Sprintf("r%d", i)
		if cfg.Faults.CrashRestart {
			s.faults = append(s.faults, fsys.NewFaultFS(store.OSFS{}))
			ds, err := store.Open(s.storeRoot(i), "doc", agent, s.storeOptions(i))
			if err != nil {
				return nil, fmt.Errorf("sim: opening store for replica %d: %w", i, err)
			}
			s.stores = append(s.stores, ds)
			s.docs = append(s.docs, ds.Doc())
			s.crashedUntil = append(s.crashedUntil, 0)
		} else {
			s.docs = append(s.docs, egwalker.NewDoc(agent))
		}
		s.scripts = append(s.scripts, newScript(cfg.Script, s.rng))
		s.lastBroadcast = append(s.lastBroadcast, egwalker.Version{})
		s.offlineUntil = append(s.offlineUntil, 0)
	}
	return s, nil
}

// storeRoot is replica i's private store root under PersistDir.
func (s *Sim) storeRoot(i int) string {
	return filepath.Join(s.cfg.PersistDir, fmt.Sprintf("r%d", i))
}

// storeOptions exercises the whole store machinery at simulation
// scale: small segments force rotation, low SnapshotEvery forces
// snapshot + compaction cycles mid-run. Replica i's store runs on its
// fault-injection filesystem (when crash-restart mode allocated one)
// with quarantine-on-corruption enabled, so damage scenarios degrade
// instead of failing the open.
func (s *Sim) storeOptions(i int) store.Options {
	o := store.Options{SegmentMaxBytes: 16 << 10, SnapshotEvery: 400, Quarantine: true}
	if i < len(s.faults) && s.faults[i] != nil {
		o.FS = s.faults[i]
	}
	return o
}

// FaultFS exposes replica i's injectable fault layer (crash-restart
// mode only; nil otherwise) for scenarios that corrupt reads or fail
// writes mid-run.
func (s *Sim) FaultFS(i int) *fsys.FaultFS {
	if i < len(s.faults) {
		return s.faults[i]
	}
	return nil
}

// Store exposes replica i's durable store (crash-restart mode only).
func (s *Sim) Store(i int) *store.DocStore { return s.stores[i] }

// StoreRoot exposes replica i's on-disk store root (crash-restart
// mode only), for scenarios that need to name specific WAL or
// snapshot files when arming faults.
func (s *Sim) StoreRoot(i int) string { return s.storeRoot(i) }

// Close releases the durable stores (crash-restart mode); the on-disk
// state remains for inspection.
func (s *Sim) Close() error {
	var err error
	for _, ds := range s.stores {
		if cerr := ds.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Run executes the whole scenario: the active phase generates cfg.Events
// local edits under the configured faults, then the network is drained
// to quiescence and (unless cfg.SkipOracle) the convergence oracle runs.
func Run(cfg Config) (*Result, error) {
	s, err := NewPersistent(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.RunToQuiescence(); err != nil {
		return nil, err
	}
	res := &Result{
		Config:      s.cfg,
		Stats:       s.stats,
		Text:        s.docs[0].Text(),
		Docs:        s.docs,
		DeliveryLog: s.log,
	}
	if !s.cfg.SkipOracle {
		if err := CheckAll(s.docs); err != nil {
			return res, fmt.Errorf("sim: seed %d: %w", s.cfg.Seed, err)
		}
		if err := s.checkStoreRecovery(); err != nil {
			return res, fmt.Errorf("sim: seed %d: %w", s.cfg.Seed, err)
		}
	}
	return res, nil
}

// checkStoreRecovery is the crash-restart oracle extension: after
// quiescence, a cold recovery of every replica's on-disk state
// (snapshot + WAL tail, as a freshly restarted process would see it)
// must reproduce the replica's converged document exactly.
func (s *Sim) checkStoreRecovery() error {
	for i, ds := range s.stores {
		if err := ds.Sync(); err != nil {
			return fmt.Errorf("oracle: store %d sync: %w", i, err)
		}
		// Close first (the store holds an inter-process lock on its
		// directory), then recover cold; the in-memory doc stays valid
		// for comparison.
		if err := ds.Close(); err != nil {
			return fmt.Errorf("oracle: store %d close: %w", i, err)
		}
		re, err := store.Open(s.storeRoot(i), "doc", fmt.Sprintf("r%d", i), s.storeOptions(i))
		if err != nil {
			return fmt.Errorf("oracle: cold recovery of replica %d: %w", i, err)
		}
		s.stores[i] = re // Sim.Close releases it
		text, events := re.Text(), re.NumEvents()
		if text != s.docs[i].Text() {
			return fmt.Errorf("oracle: replica %d recovered text (len %d) != live text (len %d)",
				i, len(text), len(s.docs[i].Text()))
		}
		if events != s.docs[i].NumEvents() {
			return fmt.Errorf("oracle: replica %d recovered %d events, live has %d",
				i, events, s.docs[i].NumEvents())
		}
	}
	return nil
}

// RunToQuiescence drives the simulation until every generated event has
// reached every replica (or an error surfaces).
func (s *Sim) RunToQuiescence() error {
	for s.stats.Edits < s.cfg.Events {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return s.drain()
}

// Step advances the virtual clock one tick: maybe toggles the partition,
// delivers due messages, lets replicas edit, and flushes outboxes.
func (s *Sim) Step() error {
	s.now++
	s.stats.Ticks = s.now
	s.stepPartition()
	if err := s.stepCrash(); err != nil {
		return err
	}
	s.releaseDeliverable()
	if err := s.deliverDue(); err != nil {
		return err
	}

	// Edits: each tick one randomly chosen replica performs a burst of
	// local edits (replicas currently offline edit too — that is the
	// point of offline divergence; crashed replicas cannot edit).
	if s.stats.Edits < s.cfg.Events {
		// A crashed editor skips its burst (it is dead); the flush phase
		// below must still run for everyone else.
		if i := s.rng.Intn(len(s.docs)); !s.isCrashed(i) {
			burst := s.scripts[i].burstSize()
			for b := 0; b < burst && s.stats.Edits < s.cfg.Events; b++ {
				n, err := s.scripts[i].apply(s.editTarget(i))
				if err != nil {
					return fmt.Errorf("sim: replica %d local edit: %w", i, err)
				}
				s.stats.Edits += n
			}
			// Bursty offline sessions: occasionally a replica drops off the
			// network for a stretch, accumulating a long-diverged branch.
			if s.cfg.Script.OfflineProb > 0 && s.rng.Float64() < s.cfg.Script.OfflineProb {
				s.offlineUntil[i] = s.now + int64(s.cfg.Script.OfflineLen)
			}
		}
	}

	// Flush: replicas broadcast what they have seen since their last
	// broadcast (their own edits plus gossip of others').
	if s.now%int64(s.cfg.FlushEvery) == 0 {
		for i := range s.docs {
			if s.now < s.offlineUntil[i] || s.isCrashed(i) {
				continue // offline: buffer locally; crashed: dead
			}
			if err := s.flush(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// editTarget is where replica i's local edits go: straight to the doc,
// or through the journaling store in crash-restart mode.
func (s *Sim) editTarget(i int) replica {
	if s.stores != nil {
		return s.stores[i]
	}
	return s.docs[i]
}

func (s *Sim) isCrashed(i int) bool {
	return s.crashedUntil != nil && s.now < s.crashedUntil[i]
}

// flush broadcasts replica i's news to every peer. In crash-restart
// mode the replica fsyncs first — write-ahead-of-send, so a broadcast
// event can never be lost by the sender's own crash (peers would
// otherwise hold events their origin no longer remembers, and the
// origin could mint conflicting IDs for new edits).
func (s *Sim) flush(i int) error {
	evs, err := s.docs[i].EventsSince(s.lastBroadcast[i])
	if err != nil {
		return fmt.Errorf("sim: replica %d EventsSince: %w", i, err)
	}
	if len(evs) == 0 {
		return nil
	}
	if s.stores != nil {
		if err := s.stores[i].Sync(); err != nil {
			return fmt.Errorf("sim: replica %d WAL sync: %w", i, err)
		}
	}
	s.lastBroadcast[i] = s.docs[i].Version()
	for j := range s.docs {
		if j == i {
			continue
		}
		s.send(i, j, evs)
	}
	return nil
}

// send enqueues one batch, applying latency and duplication.
func (s *Sim) send(from, to int, events []egwalker.Event) {
	at := s.now + 1
	if s.cfg.Faults.Latency {
		at = s.now + int64(s.cfg.MinLatency) + int64(s.rng.Intn(s.cfg.MaxLatency-s.cfg.MinLatency+1))
	}
	s.enqueue(&message{from: from, to: to, events: events, at: at})
	if s.cfg.Faults.Duplicate && s.rng.Float64() < s.cfg.DupProb {
		dupAt := at + 1 + int64(s.rng.Intn(s.cfg.MaxLatency+1))
		s.enqueue(&message{from: from, to: to, events: events, at: dupAt})
		s.stats.Duplicates++
	}
}

func (s *Sim) enqueue(m *message) {
	m.seq = s.seq
	s.seq++
	s.stats.Messages++
	s.queue.push(m)
}

// deliverDue applies every message scheduled at or before the current
// tick, rolling the drop/partition dice per attempt.
func (s *Sim) deliverDue() error {
	for len(s.queue) > 0 && s.queue[0].at <= s.now {
		m := s.queue.pop()
		// Receiver offline or link cut by a partition: park until the
		// situation clears (the transport buffers and replays).
		if s.partitioned && s.group[m.from] != s.group[m.to] {
			s.parked = append(s.parked, m)
			s.stats.Parked++
			continue
		}
		if s.now < s.offlineUntil[m.to] || s.isCrashed(m.to) {
			s.parked = append(s.parked, m)
			s.stats.Parked++
			continue
		}
		m.attempts++
		if s.cfg.Faults.Drop && m.attempts < s.cfg.MaxAttempts && s.rng.Float64() < s.cfg.DropProb {
			// Lost. The sender's timer fires and retransmits; the final
			// attempt always gets through.
			s.stats.Dropped++
			s.stats.Retransmits++
			retry := *m
			retry.at = s.now + int64(s.cfg.RetransmitDelay)
			s.enqueue(&retry)
			continue
		}
		if err := s.apply(m); err != nil {
			return err
		}
	}
	return nil
}

// apply delivers a batch to its destination replica and logs it. In
// crash-restart mode delivery goes through the store so received
// events are journaled (durable at the next fsync).
func (s *Sim) apply(m *message) error {
	var err error
	if s.stores != nil {
		_, err = s.stores[m.to].Apply(m.events)
	} else {
		_, err = s.docs[m.to].Apply(m.events)
	}
	if err != nil {
		return fmt.Errorf("sim: delivering %d->%d: %w", m.from, m.to, err)
	}
	s.stats.Delivered++
	s.log = append(s.log, fmt.Sprintf("t%d %d->%d %s+%d",
		s.now, m.from, m.to, m.events[0].ID, len(m.events)))
	return nil
}

// stepCrash runs the crash-restart schedule: crashes fire as edit
// progress crosses evenly spaced thresholds (like partitions, so short
// and long runs alike get crashed), one victim down at a time. The
// crash itself happens immediately — the store truncates to its fsync
// horizon and recovers from disk, exactly as DocStore.Crash defines —
// but the replica stays dark until its downtime ends, whereupon peers
// run reconnect anti-entropy to refill whatever the crash ate.
func (s *Sim) stepCrash() error {
	if !s.cfg.Faults.CrashRestart {
		return nil
	}
	// Restarts due this tick: rejoin the network.
	for i := range s.crashedUntil {
		if s.crashedUntil[i] != 0 && s.now >= s.crashedUntil[i] {
			s.crashedUntil[i] = 0
			if err := s.resync(i); err != nil {
				return err
			}
		}
	}
	if s.stats.Crashes >= s.cfg.CrashCount {
		return nil
	}
	for i := range s.crashedUntil {
		if s.crashedUntil[i] != 0 {
			return nil // one victim at a time
		}
	}
	threshold := (s.stats.Crashes + 1) * s.cfg.Events / (s.cfg.CrashCount + 1)
	if s.stats.Edits < threshold {
		return nil
	}
	i := s.rng.Intn(len(s.docs))
	s.stats.Crashes++
	s.crashedUntil[i] = s.now + int64(s.cfg.CrashDowntime)
	recovered, err := s.stores[i].Crash()
	if err != nil {
		return fmt.Errorf("sim: replica %d crash-recover: %w", i, err)
	}
	s.stores[i] = recovered
	s.docs[i] = recovered.Doc()
	s.stats.ReplayedEvents += recovered.Recovery().EventsReplayed
	// The recovered replica may have lost (unsynced) events its old
	// broadcast cursor referenced; start re-announcing from scratch —
	// receivers deduplicate.
	s.lastBroadcast[i] = egwalker.Version{}
	return nil
}

// resync models the anti-entropy a restarted replica runs against its
// peers on reconnect (netsync.Sync's role in the real stack): each
// peer pushes the events the recovered replica is missing, through the
// normal faulty network.
func (s *Sim) resync(i int) error {
	for j := range s.docs {
		if j == i {
			continue
		}
		known := egwalker.Version{}
		for _, id := range s.docs[i].Version() {
			if s.docs[j].Knows(id) {
				known = append(known, id)
			}
		}
		evs, err := s.docs[j].EventsSince(known)
		if err != nil {
			return fmt.Errorf("sim: resync %d->%d: %w", j, i, err)
		}
		if len(evs) > 0 {
			s.send(j, i, evs)
		}
	}
	return nil
}

// stepPartition opens and heals partitions on the configured schedule.
func (s *Sim) stepPartition() {
	if !s.cfg.Faults.Partition {
		return
	}
	if s.partitioned {
		if s.now >= s.healAt {
			s.heal()
		}
		return
	}
	if s.stats.Partitions >= s.cfg.PartitionCount {
		return
	}
	threshold := (s.stats.Partitions + 1) * s.cfg.Events / (s.cfg.PartitionCount + 1)
	if s.stats.Edits >= threshold {
		// Random two-way split with both sides non-empty.
		s.group = make([]int, len(s.docs))
		ones := 0
		for i := range s.group {
			s.group[i] = s.rng.Intn(2)
			ones += s.group[i]
		}
		if ones == 0 || ones == len(s.group) {
			s.group[s.rng.Intn(len(s.group))] ^= 1
		}
		s.partitioned = true
		s.healAt = s.now + int64(s.cfg.PartitionLen)
		s.stats.Partitions++
	}
}

// heal ends the current partition and re-enqueues everything it was
// holding back.
func (s *Sim) heal() {
	s.partitioned = false
	s.releaseDeliverable()
}

// releaseDeliverable re-enqueues parked messages whose obstacle has
// cleared — the partition healed for that pair, or the receiver came
// back online — with fresh (deterministic) delivery times. Messages
// still blocked stay parked.
func (s *Sim) releaseDeliverable() {
	if len(s.parked) == 0 {
		return
	}
	keep := s.parked[:0]
	for _, m := range s.parked {
		if (s.partitioned && s.group[m.from] != s.group[m.to]) ||
			s.now < s.offlineUntil[m.to] || s.isCrashed(m.to) {
			keep = append(keep, m)
			continue
		}
		m.at = s.now + 1 + int64(s.rng.Intn(s.cfg.MaxLatency+1))
		m.seq = s.seq
		s.seq++
		s.queue.push(m)
	}
	s.parked = keep
}

// drain runs the network to quiescence: no more edits are generated,
// partitions heal, offline replicas return, and the queue empties.
// Afterwards every replica must hold the full history.
func (s *Sim) drain() error {
	for round := 0; ; round++ {
		// Clear anything that would hold messages back.
		if s.partitioned {
			s.heal()
		}
		for i := range s.offlineUntil {
			s.offlineUntil[i] = 0
		}
		// Crashed replicas restart now and run reconnect anti-entropy.
		for i := range s.crashedUntil {
			if s.crashedUntil[i] != 0 {
				s.crashedUntil[i] = 0
				if err := s.resync(i); err != nil {
					return err
				}
			}
		}
		s.releaseDeliverable()
		for len(s.queue) > 0 {
			s.now++
			s.stats.Ticks = s.now
			s.releaseDeliverable()
			if err := s.deliverDue(); err != nil {
				return err
			}
		}
		// Final flushes: anything heard but not yet re-broadcast.
		progress := false
		for i := range s.docs {
			before := s.stats.Messages
			if err := s.flush(i); err != nil {
				return err
			}
			if s.stats.Messages != before {
				progress = true
			}
		}
		if !progress {
			return nil
		}
		if round > 1000 {
			return fmt.Errorf("sim: drain did not quiesce after %d rounds", round)
		}
	}
}
