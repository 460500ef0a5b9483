package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Set-up is one independent step per document — generate it, encode its
// files and scripts, populate its store directories — and each step is a
// pure function of (workload, seed, document). Its parts (stepClock) are
// timed apart and setup_s is Σ_docs Σ_parts min over the repetitions: the
// same floor estimate the timings use (with the collector off inside a step),
// so work moved out of a timed unit into set-up shows up here. A whole step
// is 5–50 ms and would need dozens of repetitions to find the machine quiet
// once; its parts, a fraction of a millisecond each, need few.
//
// A step is repeated setupReps times before the rounds, and again inside
// them (redo): a few documents per round, so every document gets a dozen
// more repetitions spread over the run. Set-up repeated only in the first
// seconds of a process measured those seconds: on a machine whose speed
// drifts over tens of seconds its floor moved 15–25 % between runs.

const setupReps = 3

// stepClock times the parts of a set-up step — a turn or an episode of the
// typists, a script, each stage of populating a directory — and keeps each
// part's minimum over the repetitions. A nil clock times nothing.
type stepClock struct {
	last time.Time
	part int
	best []int64
}

func (c *stepClock) start() { c.part, c.last = 0, time.Now() }

// lap ends the current part.
func (c *stepClock) lap() {
	if c == nil {
		return
	}
	now := time.Now()
	ns := now.Sub(c.last).Nanoseconds()
	if c.part == len(c.best) {
		c.best = append(c.best, ns)
	} else {
		c.best[c.part] = min(c.best[c.part], ns)
	}
	c.part++
	c.last = now
}

func (c *stepClock) floorNs() (sum int64) {
	for _, ns := range c.best {
		sum += ns
	}
	return sum
}

// fanoutBurst is one scripted upload of the fan-out metric.
type fanoutBurst struct {
	raw  []byte // compact batch, as the writer's client would send it
	n    int
	hash uint64 // of the events, what every subscriber must decode
}

// fixture is everything the timed units of one document need.
type fixture struct {
	idx   int
	docID string
	n     int // events in the whole document

	events     []Event
	eventsHash uint64
	textHash   uint64
	textLen    int
	fp         uint64 // fingerprint of any replica holding all n events

	file []byte // Doc.Save with the final text cached

	// merge: the replica starts from mergeStart (nil: NewDoc) and applies
	// mergeBatches.
	mergeStart   []byte
	mergeBatches [][]Event
	mergeEvents  int

	// edit: bursts of calls replayed on a freshly loaded copy.
	edits        [][]editOp
	editEvents   int
	editTextHash uint64

	// fan-out (first fanoutDocs documents only)
	fanout  []fanoutBurst
	summary VersionSummary // of the whole document: the subscribers' hello

	// rejoin: the client loads heldFile and dials rejoinID; diverged
	// clients also upload offline.
	heldFile []byte
	rejoinID string
	offline  []Event
}

func docIDFor(workload string, idx int) string { return fmt.Sprintf("%s-%03d", workload, idx) }

// buildFixture is the set-up step of one document; clk.lap ends each part.
func buildFixture(s spec, seed uint64, idx int, fs *memFS, popRoot string, clk *stepClock) (*fixture, error) {
	g, err := generate(s, seed, idx, clk)
	if err != nil {
		return nil, err
	}
	fx := &fixture{idx: idx, docID: docIDFor(s.name, idx), n: len(g.events), events: g.events}
	fx.eventsHash = hashEvents(g.events)
	text := docText(g.final)
	fx.textHash, fx.textLen = hashString(text), docLen(g.final)
	fx.fp = docFingerprint(g.final)
	fx.summary = docSummary(g.final)

	var buf bytes.Buffer
	if err := docSave(g.final, &buf); err != nil {
		return nil, err
	}
	fx.file = append([]byte(nil), buf.Bytes()...)

	incoming := g.events
	if g.held != nil {
		buf.Reset()
		if err := docSave(g.held, &buf); err != nil {
			return nil, err
		}
		fx.heldFile = append([]byte(nil), buf.Bytes()...)
		fx.mergeStart = fx.heldFile
		fx.offline = g.offline
		incoming = g.incoming
	}
	fx.mergeEvents = len(incoming)
	for i := 0; i < len(incoming); i += s.mergeBatch {
		fx.mergeBatches = append(fx.mergeBatches, incoming[i:min(i+s.mergeBatch, len(incoming))])
	}
	clk.lap()

	// The keystroke script, typed on a loaded copy.
	ed, err := docLoad(fx.file, "editor")
	if err != nil {
		return nil, err
	}
	fx.edits, err = editScript(s, seed, idx, ed, editBursts)
	if err != nil {
		return nil, err
	}
	fx.editEvents = docNumEvents(ed) - fx.n
	fx.editTextHash = hashString(docText(ed))
	clk.lap()

	if idx < s.fanoutDocs {
		if err := fx.buildFanout(s, seed); err != nil {
			return nil, err
		}
		clk.lap()
	}

	// Store directories: a snapshot of all but the last tail events plus a
	// WAL tail of burst-sized blocks, which is what a hosted document
	// looks like between compactions.
	held, err := populate(fs, popRoot, fx.docID, g.events, s.tail, clk)
	if err != nil {
		return nil, err
	}
	fx.rejoinID = fx.docID
	if g.held == nil {
		fx.heldFile = held
	} else {
		fx.rejoinID = fx.docID + "-srv"
		if _, err := populate(fs, popRoot, fx.rejoinID, g.server, s.tail, clk); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

const (
	editBursts   = 200
	editUnit     = 20 // bursts per timed unit
	fanoutPasses = 4  // times per round the fan-out script runs, each on a fresh copy
	loadPasses   = 4  // times per round a document is loaded: a cheap unit, one per document
	savePasses   = 2  // and saved
	joinPasses   = 2  // times per round a document is joined cold, each through a fresh host
	fanoutSubs   = 8
)

// buildFanout scripts the writer's bursts of the fan-out metric.
func (fx *fixture) buildFanout(s spec, seed uint64) (err error) {
	fx.fanout, err = scriptBursts(s, seed, fx, "fanout", s.fanoutBursts)
	return err
}

// scriptBursts types count bursts on a loaded copy of the document, each
// encoded the way a client sends it.
func scriptBursts(s spec, seed uint64, fx *fixture, stream string, count int) ([]fanoutBurst, error) {
	w, err := docLoad(fx.file, "writer")
	if err != nil {
		return nil, err
	}
	deck := makeDeck(deckParams{count * 10, survive, 33}, docRNG(s.name, seed, fx.idx, "deck-"+stream))
	if len(deck) < count {
		return nil, fmt.Errorf("scriptBursts: deck of %d bursts, want %d", len(deck), count)
	}
	t := newTypist(w, deck[:count], 11, docRNG(s.name, seed, fx.idx, "jump-"+stream))
	t.jump(t.r.intn(1 << 16))
	bursts := make([]fanoutBurst, 0, count)
	for !t.done() {
		pre := docVersion(w)
		if _, err := t.burst(); err != nil {
			return nil, err
		}
		evs, err := docEventsSince(w, pre)
		if err != nil {
			return nil, err
		}
		raw, err := marshalCompact(evs)
		if err != nil {
			return nil, err
		}
		bursts = append(bursts, fanoutBurst{raw: raw, n: len(evs), hash: hashEvents(evs)})
	}
	return bursts, nil
}

// burstLens cuts n events into burst-sized pieces (1..20, the deck's
// insert lengths).
func burstLens(n int) []int {
	var out []int
	for i := 0; n > 0; i++ {
		k := min(1+(i*7)%20, n)
		out = append(out, k)
		n -= k
	}
	return out
}

// populate writes docID under root: everything but the last tail events
// applied and snapshotted, the tail ingested as burst-sized compact
// batches. It returns the saved state at the snapshot — the file a client
// that missed the tail holds.
func populate(fs *memFS, root, docID string, evs []Event, tail int, clk *stepClock) ([]byte, error) {
	if err := fs.RemoveAll(filepath.Join(root, docID)); err != nil {
		return nil, err
	}
	ds, err := storeOpen(root, docID, fs)
	if err != nil {
		return nil, err
	}
	defer storeClose(ds) // a second Close is a no-op
	tail = min(tail, len(evs))
	cut := len(evs) - tail
	clk.lap()
	if err := storeApply(ds, evs[:cut]); err != nil {
		return nil, err
	}
	clk.lap()
	var held bytes.Buffer
	if err := docSave(storeDoc(ds), &held); err != nil {
		return nil, err
	}
	clk.lap()
	if err := storeSnapshot(ds); err != nil {
		return nil, err
	}
	if err := storeCompact(ds); err != nil {
		return nil, err
	}
	clk.lap()
	for _, k := range burstLens(tail) {
		raw, err := marshalCompact(evs[cut : cut+k])
		if err != nil {
			return nil, err
		}
		if _, err := storeIngest(ds, evs[cut:cut+k], raw); err != nil {
			return nil, err
		}
		cut += k
	}
	if storeNumEvents(ds) != len(evs) {
		return nil, fmt.Errorf("populate %s: store holds %d events, want %d", docID, storeNumEvents(ds), len(evs))
	}
	if err := storeSync(ds); err != nil {
		return nil, err
	}
	err = storeClose(ds)
	clk.lap()
	return held.Bytes(), err
}

// corpusFixtures is a workload's set-up: every document's fixture and the
// floor of the set-up time.
type corpusFixtures struct {
	spec    spec
	seed    uint64
	docs    []*fixture
	clocks  []*stepClock // per document: the floors of its set-up step's parts
	events  int          // Σ docs n
	fs      *memFS       // holds every end-to-end store directory
	popRoot string       // the populated directories, one per document
}

// setupNs is the floor of the set-up time so far.
func (c *corpusFixtures) setupNs() (sum int64) {
	for _, clk := range c.clocks {
		sum += clk.floorNs()
	}
	return sum
}

// redo repeats the set-up step of a few documents, round-robin — every
// document once in eight rounds — writing to a scratch root, and keeps only
// the times.
func (c *corpusFixtures) redo(round int, scratchRoot string) error {
	perRound := max(1, len(c.docs)/8)
	for k := 0; k < perRound; k++ {
		idx := (round*perRound + k) % len(c.docs)
		c.clocks[idx].start()
		if _, err := buildFixture(c.spec, c.seed, idx, c.fs, scratchRoot, c.clocks[idx]); err != nil {
			return fmt.Errorf("set-up of %s: %w", docIDFor(c.spec.name, idx), err)
		}
	}
	return c.fs.RemoveAll(scratchRoot)
}

func setup(s spec, seed uint64, workRoot string, reps int) (*corpusFixtures, error) {
	c := &corpusFixtures{spec: s, seed: seed, fs: newMemFS(), popRoot: filepath.Join(workRoot, "pop")}
	if err := os.MkdirAll(c.popRoot, 0o777); err != nil {
		return nil, err
	}
	defer gcOff()()
	for idx := 0; idx < s.docs; idx++ {
		var fx *fixture
		clk := &stepClock{}
		for rep := 0; rep < reps; rep++ {
			collect()
			clk.start()
			f, err := buildFixture(s, seed, idx, c.fs, c.popRoot, clk)
			if err != nil {
				return nil, fmt.Errorf("set-up of %s: %w", docIDFor(s.name, idx), err)
			}
			fx = f
		}
		c.clocks = append(c.clocks, clk)
		c.events += fx.n
		c.docs = append(c.docs, fx)
	}
	return c, nil
}
