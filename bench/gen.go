package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
)

// The benchmark's own typist. Documents are generated through the public
// Doc API only (Insert/Delete/Fork/Apply/EventsSince), so the inputs do
// not move when internal/trace's generators do.
//
// Every document is typed from a *deck*: the bursts (kind, length, cursor
// jump and its target) and their order inside each block of deckBlock
// bursts are a pure function of the workload; the seed only shuffles the
// blocks. Event counts, insert/delete totals, burst counts, inserted bytes
// and — because bursts of one kind that follow each other become one run on
// the wire — almost all run counts are therefore the same for every seed,
// which is what lets per-event byte and heap metrics repeat across seeds to
// a fraction of a percent while the histories themselves differ.

// rng is splitmix64: tiny, seedable, and stable across Go releases (the
// pinned input hashes depend on it).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); n must be positive.
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// docRNG derives the stream for one document of one workload.
func docRNG(workload string, seed uint64, doc int, stream string) *rng {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d/%s", workload, seed, doc, stream)
	return &rng{s: h.Sum64()}
}

const (
	bInsert = iota
	bBackspace
	bDelete
)

type burst struct {
	kind uint8
	n    int
	// jump > 0: move the cursor first, to this share (in 1/65536) of the
	// typist's part of the document
	jump int
}

// deckParams describe one author's share of one document.
type deckParams struct {
	events   int     // exactly this many events
	survive  float64 // share of inserted characters never deleted
	jumpEach int     // one burst in jumpEach starts with a cursor jump
}

// deckBlock is how many bursts keep their order when the seed shuffles a
// deck; it is the turn length of the workloads typed in turns, so what an
// author types in one turn is one block.
const deckBlock = 8

// fixedBlocks is how many blocks at a deck's end are not shuffled (at most
// half the deck).
const fixedBlocks = 6

// makeDeck builds the author's bursts. Insert bursts are 1..20 characters,
// delete bursts 1..10; one delete burst in three is a forward delete, the
// rest are backspace runs. The first tenth of the insert bursts stay in
// front, unshuffled, so that deletes always find text to remove. The rest
// are mixed by a fixed stream, cut into blocks, and the blocks shuffled by r.
func makeDeck(p deckParams, r *rng) []burst {
	inserts := int(float64(p.events)/(2-p.survive) + 0.5)
	deletes := p.events - inserts
	var ins, rest []burst
	for i, left := 0, inserts; left > 0; i++ {
		n := min(1+(i*7)%20, left)
		ins = append(ins, burst{kind: bInsert, n: n})
		left -= n
	}
	lead := min((len(ins)/10/deckBlock+1)*deckBlock, len(ins)) // whole blocks, so blocks and turns line up
	rest = append(rest, ins[lead:]...)
	for i, left := 0, deletes; left > 0; i++ {
		n := min(1+(i*3)%10, left)
		kind := uint8(bBackspace)
		if i%3 == 2 {
			kind = bDelete
		}
		rest = append(rest, burst{kind: kind, n: n})
		left -= n
	}
	mix := &rng{s: uint64(p.events)}
	for i := len(rest) - 1; i > 0; i-- {
		j := mix.intn(i + 1)
		rest[i], rest[j] = rest[j], rest[i]
	}
	// The last blocks keep their place (and a shorter last one): the store's
	// WAL tail is cut from a document's end, one block per burst, and what
	// those blocks weigh on the wire depends on the bursts they hold.
	blocks := len(rest) / deckBlock
	blocks -= min(fixedBlocks, blocks/2)
	for i := blocks - 1; i > 0; i-- {
		j := r.intn(i + 1)
		for k := 0; k < deckBlock; k++ {
			rest[i*deckBlock+k], rest[j*deckBlock+k] = rest[j*deckBlock+k], rest[i*deckBlock+k]
		}
	}
	deck := append(ins[:lead:lead], rest...)
	for i := range deck {
		if i%p.jumpEach == p.jumpEach-1 {
			deck[i].jump = 1 + mix.intn(1<<16)
		}
	}
	return deck
}

// corpus is what every author types, cycled; a few two-byte runes, spread
// out, keep the UTF-8 paths honest (a run of three-byte runes made the
// final text's size, and with it every byte metric, depend on which
// characters a seed happened to delete). Content depends on how many
// characters an author has typed so far, never on the seed.
var corpus = []rune("the quick brown fox jumps over the lazy dog; " +
	"sphinx of black quartz, judge my vow. " +
	"Zwölf Boxkämpfer jagen Viktor quer über den großen Sylter Deich. ")

// typist is one author at one replica: a cursor, a deck, and a position
// in the corpus.
type typist struct {
	doc    *Doc
	deck   []burst
	next   int // next burst in deck
	cursor int
	typed  int // characters typed so far (corpus position)
	r      *rng
	// lo and hi bound the cursor's jump targets, as shares of the document:
	// an offline branch stays in its own part of it.
	lo, hi float64
	// record, when set, receives each edit call as it is made.
	record func(editOp)
}

// editOp is one recorded call on the Doc.
type editOp struct {
	insert bool
	pos    int
	n      int    // deletes: count
	text   string // inserts
}

func newTypist(doc *Doc, deck []burst, corpusOffset int, r *rng) *typist {
	return &typist{doc: doc, deck: deck, typed: corpusOffset, r: r, cursor: docLen(doc), hi: 1}
}

// jump moves the cursor to share (in 1/65536) of the typist's part of the
// document.
func (t *typist) jump(share int) {
	n := float64(docLen(t.doc))
	lo := int(t.lo * n)
	t.cursor = lo + (int(t.hi*n)-lo+1)*share>>16
}

func (t *typist) done() bool { return t.next >= len(t.deck) }

// feasible reports whether b can run now, moving the cursor (a free move,
// no event) when the text is elsewhere in the document.
func (t *typist) feasible(b burst) bool {
	n := docLen(t.doc)
	switch b.kind {
	case bBackspace:
		if t.cursor < b.n {
			if n < b.n {
				return false
			}
			t.cursor = n
		}
	case bDelete:
		if t.cursor+b.n > n {
			if n < b.n {
				return false
			}
			t.cursor = n - b.n
		}
	}
	return true
}

// burst types the next burst of the deck and returns how many events it
// made. A delete that finds too little text swaps places with the next
// insert burst of the deck.
func (t *typist) burst() (int, error) {
	b := t.deck[t.next]
	if b.jump > 0 {
		t.jump(b.jump - 1)
	}
	if t.cursor > docLen(t.doc) {
		t.cursor = docLen(t.doc)
	}
	if !t.feasible(b) {
		j := t.next + 1
		for j < len(t.deck) && t.deck[j].kind != bInsert {
			j++
		}
		if j == len(t.deck) {
			return 0, fmt.Errorf("typist: delete of %d with %d characters left and no insert burst to swap with", b.n, docLen(t.doc))
		}
		t.deck[t.next].kind, t.deck[j].kind = t.deck[j].kind, t.deck[t.next].kind
		t.deck[t.next].n, t.deck[j].n = t.deck[j].n, t.deck[t.next].n
		b = t.deck[t.next]
	}
	t.next++
	switch b.kind {
	case bInsert:
		text := make([]rune, b.n)
		for i := range text {
			text[i] = corpus[(t.typed+i)%len(corpus)]
		}
		t.typed += b.n
		if err := t.insert(t.cursor, string(text)); err != nil {
			return 0, err
		}
		t.cursor += b.n
	case bBackspace:
		for i := 0; i < b.n; i++ {
			if err := t.delete(t.cursor-1, 1); err != nil {
				return 0, err
			}
			t.cursor--
		}
	case bDelete:
		if err := t.delete(t.cursor, b.n); err != nil {
			return 0, err
		}
	}
	return b.n, nil
}

func (t *typist) insert(pos int, text string) error {
	if t.record != nil {
		t.record(editOp{insert: true, pos: pos, text: text})
	}
	return docInsert(t.doc, pos, text)
}

func (t *typist) delete(pos, n int) error {
	if t.record != nil {
		t.record(editOp{pos: pos, n: n})
	}
	return docDelete(t.doc, pos, n)
}

// remote moves the cursor over patches another author's events made.
func (t *typist) remote(ps []Patch) {
	for _, p := range ps {
		switch {
		case p.Insert && p.Pos < t.cursor:
			t.cursor += p.N
		case !p.Insert && p.Pos < t.cursor:
			t.cursor -= min(p.N, t.cursor-p.Pos)
		}
	}
}

// spec sizes one workload. Frozen with BENCHMARK.json: the committed
// numbers are per event of these corpora.
type spec struct {
	name string
	docs int
	// events per document (diverged: base + branches*branchEvents)
	events int
	// shape
	lag          int    // conc/live: steps before the other author sees a burst
	bubble       [6]int // conc/live: steps of alternating authors per episode, cycled
	quiet        [6]int // conc/live: bursts one author types alone after each bubble, cycled
	quietByFirst bool   // live: the quiet bursts are always the first author's
	secondShare  int    // conc/live: the second author types events/secondShare
	turn         int    // seq/diverged base: bursts per turn
	branches     int    // diverged
	branchEvents int    // diverged
	mergeBatch   int    // arrival batch of the merge metric
	tail         int    // events in the store directory's WAL after its snapshot; what a rejoining client lacks (not diverged)
	fanoutDocs   int    // documents the fan-out script runs on
	fanoutBursts int    // bursts per fan-out document
}

var specs = []spec{
	{name: "seq", docs: 12, events: 7000, turn: 8, mergeBatch: 4096, tail: 256, fanoutDocs: 4, fanoutBursts: 50},
	{name: "conc", docs: 8, events: 5000, lag: 3, bubble: [6]int{4, 8, 6, 12, 10, 16}, quiet: [6]int{1, 0, 2, 0, 3, 1}, secondShare: 2, mergeBatch: 4096, tail: 256, fanoutDocs: 4, fanoutBursts: 50},
	{name: "diverged", docs: 10, events: 7200, turn: 8, branches: 4, branchEvents: 1200, mergeBatch: 4096, tail: 64, fanoutDocs: 4, fanoutBursts: 50},
	{name: "live", docs: 64, events: 1000, lag: 2, bubble: [6]int{2, 3, 2, 4, 2, 3}, quiet: [6]int{8, 10, 6, 12, 9, 7}, quietByFirst: true, secondShare: 8, mergeBatch: 256, tail: 256, fanoutDocs: 6, fanoutBursts: 32},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a spec for the smoke tests; the committed numbers never
// use it.
func (s spec) scaled(f float64) spec {
	sc := func(n int) int { return max(int(float64(n)*f), 1) }
	s.docs = max(min(s.docs, 2), sc(s.docs))
	s.events = max(sc(s.events), 600)
	if s.branches > 0 {
		s.branchEvents = max(sc(s.branchEvents), 100)
		s.events = max(s.events, s.branches*s.branchEvents+200)
	}
	s.mergeBatch = max(sc(s.mergeBatch), 64)
	s.tail = min(s.tail, s.events/4)
	s.fanoutDocs = min(s.fanoutDocs, s.docs)
	s.fanoutBursts = max(sc(s.fanoutBursts), 10)
	return s
}

// genDoc is one generated document: the replica that holds everything,
// and for diverged the two sides of the reconnect.
type genDoc struct {
	final  *Doc
	events []Event // final.Events(): the canonical causal order
	// diverged only
	held     *Doc    // base + branch 0, before it met the other branches
	incoming []Event // what held lacks: branches 1.., in causal order
	server   []Event // base + branches 1..: what the server holds before the reconnect
	offline  []Event // branch 0's own events: what the client uploads
}

const survive = 0.45

// generate types document doc of workload s for seed; clk.lap ends each
// part of the work (set-up times them apart).
func generate(s spec, seed uint64, doc int, clk *stepClock) (*genDoc, error) {
	switch {
	case s.branches > 0:
		return genDiverged(s, seed, doc, clk)
	case s.lag > 0:
		return genConcurrent(s, seed, doc, clk)
	default:
		final, err := genTurns(s, seed, doc, s.events, clk)
		if err != nil {
			return nil, err
		}
		return &genDoc{final: final, events: docEvents(final)}, nil
	}
}

// genTurns: two authors on two replicas take turns of s.turn bursts; the
// history stays linear.
func genTurns(s spec, seed uint64, doc, events int, clk *stepClock) (*Doc, error) {
	a, b := newDoc("ann"), newDoc("bob")
	ta := newTypist(a, makeDeck(deckParams{events - events/2, survive, 33}, docRNG(s.name, seed, doc, "deck-a")), 0, docRNG(s.name, seed, doc, "jump-a"))
	tb := newTypist(b, makeDeck(deckParams{events / 2, survive, 33}, docRNG(s.name, seed, doc, "deck-b")), len(corpus)/2, docRNG(s.name, seed, doc, "jump-b"))
	cur, other := ta, tb
	for !ta.done() || !tb.done() {
		if cur.done() {
			cur, other = other, cur
		}
		pre := docVersion(cur.doc)
		for i := 0; i < s.turn && !cur.done(); i++ {
			if _, err := cur.burst(); err != nil {
				return nil, err
			}
		}
		evs, err := docEventsSince(cur.doc, pre)
		if err != nil {
			return nil, err
		}
		ps, err := docApply(other.doc, evs)
		if err != nil {
			return nil, err
		}
		other.remote(ps)
		cur, other = other, cur
		clk.lap()
	}
	if docNumEvents(a) != events || docNumEvents(b) != events {
		return nil, fmt.Errorf("genTurns: %d/%d events, want %d", docNumEvents(a), docNumEvents(b), events)
	}
	return a, nil
}

// fixedEpisodes is how many episodes at a document's end are not shuffled.
const fixedEpisodes = 8

// step is one entry of a concurrent document's schedule: an author types
// a burst, or both replicas catch up with each other.
type step struct {
	who  uint8
	sync bool
}

// schedule orders the authors' nA and nB bursts into episodes. An episode
// is a stretch of the two authors alternating (a concurrent bubble: inside
// it each sees the other's bursts s.lag steps late), a pause long enough
// for both to catch up, a few bursts by one author alone, and another
// pause. The episodes' sizes cycle through the spec's patterns, so their
// multiset is the same for every seed; the seed shuffles their order
// (except the last fixedEpisodes). An author who runs out of bursts leaves
// his turns to the other.
func schedule(s spec, nA, nB int, r *rng) []step {
	left := [2]int{nA, nB}
	take := func(u uint8) (uint8, bool) {
		if left[u] == 0 {
			u ^= 1
		}
		if left[u] == 0 {
			return 0, false
		}
		left[u]--
		return u, true
	}
	var episodes [][]step
	for i := 0; left[0]+left[1] > 0; i++ {
		var ep []step
		u := uint8(i % 2)
		for k := 0; k < s.bubble[i%len(s.bubble)]; k++ {
			if w, ok := take(u); ok {
				ep = append(ep, step{who: w})
			}
			u ^= 1
		}
		ep = append(ep, step{sync: true})
		u = uint8(i % 2)
		if s.quietByFirst {
			u = 0
		}
		for k := 0; k < s.quiet[i%len(s.quiet)]; k++ {
			if w, ok := take(u); ok {
				ep = append(ep, step{who: w})
			}
		}
		episodes = append(episodes, append(ep, step{sync: true}))
	}
	// The last episodes keep their place: what a cold join or a reconnect
	// costs depends on the bubbles the store's WAL tail falls into, and
	// eight documents are too few to average that out.
	for i := len(episodes) - 1 - fixedEpisodes; i > 0; i-- {
		j := r.intn(i + 1)
		episodes[i], episodes[j] = episodes[j], episodes[i]
	}
	var out []step
	for _, ep := range episodes {
		out = append(out, ep...)
	}
	return out
}

// genConcurrent types one document on two replicas following schedule:
// thousands of small concurrent bubbles between critical versions on conc,
// a mostly linear history with two- to four-burst bubbles on live.
func genConcurrent(s spec, seed uint64, doc int, clk *stepClock) (*genDoc, error) {
	a, b := newDoc("ann"), newDoc("bob")
	share := s.events / s.secondShare
	ts := [2]*typist{
		newTypist(a, makeDeck(deckParams{s.events - share, survive, 33}, docRNG(s.name, seed, doc, "deck-a")), 0, docRNG(s.name, seed, doc, "jump-a")),
		newTypist(b, makeDeck(deckParams{share, survive, 33}, docRNG(s.name, seed, doc, "deck-b")), len(corpus)/2, docRNG(s.name, seed, doc, "jump-b")),
	}
	type sent struct {
		evs  []Event
		from uint8
		step int
	}
	var log []sent
	var seen [2]int // how much of log each author has walked past
	receive := func(u uint8, step, lag int) error {
		for ; seen[u] < len(log); seen[u]++ {
			m := log[seen[u]]
			if m.from == u {
				continue
			}
			if step-m.step < lag {
				return nil
			}
			ps, err := docApply(ts[u].doc, m.evs)
			if err != nil {
				return err
			}
			ts[u].remote(ps)
		}
		return nil
	}
	for i, st := range schedule(s, len(ts[0].deck), len(ts[1].deck), docRNG(s.name, seed, doc, "schedule")) {
		if st.sync {
			for u := range ts {
				if err := receive(uint8(u), i, 0); err != nil {
					return nil, err
				}
			}
			clk.lap()
			continue
		}
		if err := receive(st.who, i, s.lag); err != nil {
			return nil, err
		}
		t := ts[st.who]
		pre := docVersion(t.doc)
		if _, err := t.burst(); err != nil {
			return nil, err
		}
		evs, err := docEventsSince(t.doc, pre)
		if err != nil {
			return nil, err
		}
		log = append(log, sent{evs, st.who, i})
	}
	if docNumEvents(a) != s.events || docFingerprint(a) != docFingerprint(b) {
		return nil, fmt.Errorf("genConcurrent: replicas differ or hold %d events, want %d", docNumEvents(a), s.events)
	}
	g := &genDoc{final: a, events: docEvents(a)}
	clk.lap()
	return g, nil
}

// genDiverged: a shared base typed in turns, then s.branches replicas
// forked from it each type s.branchEvents offline. Branch 0 is the measured
// replica: it later merges the others.
func genDiverged(s spec, seed uint64, doc int, clk *stepClock) (*genDoc, error) {
	baseEvents := s.events - s.branches*s.branchEvents
	base, err := genTurns(s, seed, doc, baseEvents, clk)
	if err != nil {
		return nil, err
	}
	baseVersion := docVersion(base)
	g := &genDoc{}
	server, err := docFork(base, "server")
	if err != nil {
		return nil, err
	}
	for br := 0; br < s.branches; br++ {
		name := fmt.Sprintf("br%d", br)
		d, err := docFork(base, name)
		if err != nil {
			return nil, err
		}
		t := newTypist(d, makeDeck(deckParams{s.branchEvents, survive, 33}, docRNG(s.name, seed, doc, "deck-"+name)), br*len(corpus)/s.branches, docRNG(s.name, seed, doc, "jump-"+name))
		// Each branch edits its own quarter: offline authors who delete the
		// same text twice would make the final length depend on the seed.
		t.lo, t.hi = float64(br)/float64(s.branches), float64(br+1)/float64(s.branches)
		t.jump(t.r.intn(1 << 16))
		for i := 1; !t.done(); i++ {
			if _, err := t.burst(); err != nil {
				return nil, err
			}
			if i%s.turn == 0 {
				clk.lap()
			}
		}
		own, err := docEventsSince(d, baseVersion)
		if err != nil {
			return nil, err
		}
		if br == 0 {
			g.held, g.offline = d, own
			clk.lap()
			continue
		}
		if _, err := docApply(server, own); err != nil {
			return nil, err
		}
		clk.lap()
	}
	g.server = docEvents(server)
	g.incoming, err = docEventsSince(server, baseVersion)
	if err != nil {
		return nil, err
	}
	g.final, err = docFork(g.held, "br0")
	if err != nil {
		return nil, err
	}
	if _, err := docApply(g.final, g.incoming); err != nil {
		return nil, err
	}
	if docNumEvents(g.final) != s.events {
		return nil, fmt.Errorf("genDiverged: %d events, want %d", docNumEvents(g.final), s.events)
	}
	g.events = docEvents(g.final)
	clk.lap()
	return g, nil
}

// editScript records bursts typed on d (which it mutates) as concrete
// calls, grouped by burst: the keystroke script the edit metric replays on
// a freshly loaded copy.
func editScript(s spec, seed uint64, doc int, d *Doc, bursts int) ([][]editOp, error) {
	deck := makeDeck(deckParams{bursts * 10, survive, 33}, docRNG(s.name, seed, doc, "deck-edit"))
	if len(deck) < bursts {
		return nil, fmt.Errorf("editScript: deck of %d bursts, want %d", len(deck), bursts)
	}
	t := newTypist(d, deck[:bursts], 7, docRNG(s.name, seed, doc, "jump-edit"))
	t.jump(t.r.intn(1 << 16))
	script := make([][]editOp, 0, bursts)
	var cur []editOp
	t.record = func(op editOp) { cur = append(cur, op) }
	for !t.done() {
		cur = nil
		if _, err := t.burst(); err != nil {
			return nil, err
		}
		script = append(script, cur)
	}
	return script, nil
}

// hashEvents digests an event list: IDs, parents, kinds, positions and
// content, in order.
func hashEvents(evs []Event) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, ev := range evs {
		h.Write([]byte(ev.ID.Agent))
		num(ev.ID.Seq)
		num(len(ev.Parents))
		for _, p := range ev.Parents {
			h.Write([]byte(p.Agent))
			num(p.Seq)
		}
		if ev.Insert {
			num(1)
		} else {
			num(0)
		}
		num(ev.Pos)
		num(int(ev.Content))
	}
	return h.Sum64()
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
