// Package causal implements the event graph substrate from the Eg-walker
// paper (§2.2–§2.3): a transitively reduced DAG of events, each identified
// both by a wire ID (agent, seq) and by a dense local version (LV) that
// indexes the event in this replica's storage order. The storage order is
// always a valid topological order because an event may only be added after
// all of its parents.
//
// The graph is stored run-length encoded: humans type runs of consecutive
// characters, so long stretches of the graph are linear chains by a single
// agent. Each entry covers a contiguous LV range by one agent with
// consecutive sequence numbers, where every event's parent is its
// predecessor except the first, whose parents are stored explicitly.
package causal

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// LV is a local version: the dense index of an event in this replica's
// storage order. LVs are replica-local; on the wire events are identified
// by RawID. LV values are assigned contiguously starting from 0.
type LV int

// RawID identifies an event globally: the agent that generated it plus a
// per-agent sequence number (0-based, contiguous per agent).
type RawID struct {
	Agent string
	Seq   int
}

func (id RawID) String() string { return fmt.Sprintf("%s/%d", id.Agent, id.Seq) }

// Span is a half-open range [Start, End) of local versions.
type Span struct {
	Start, End LV
}

// Len returns the number of events covered by the span.
func (s Span) Len() int { return int(s.End - s.Start) }

// Contains reports whether lv falls within the span.
func (s Span) Contains(lv LV) bool { return lv >= s.Start && lv < s.End }

// Ref is an event and the index of the graph entry that holds it, as
// SeqRun and Entries.NextRefs find it: handed back to AddNum,
// DominatorsInto or DiffInto, it spares them the search. Each Ref they
// store or walk from is checked — its entry must hold its LV — and one
// that does not fit is refused.
type Ref struct {
	LV  LV
	Ent uint32
}

// entry is one run-length encoded chunk of the graph: a run of events by
// one agent with consecutive seqs beginning at seqStart, every event but
// the first the sole child of its predecessor. It is a fixed-size record
// with no pointer in it: the run ends where the next entry starts (at
// Graph.n for the last one), and the parents of its first event are a
// stretch of Graph.parents that ends where the next entry's begins.
// Sequence numbers arrive from peers and stay int; LVs, which count this
// replica's own events, are held to 32 bits by Add.
type entry struct {
	seqStart int
	start    uint32 // LV of the first event
	agent    uint32 // index into Graph.agents
	// heads is the size of the frontier of the graph's prefix that ends
	// with this entry, recorded when the entry is added (extending the
	// entry moves its head along and leaves the count as it is). A version
	// inside the entry can be critical only if heads is 1 (critical.go).
	heads   uint32
	parents uint32 // index in Graph.parents of the first stored parent
}

// maxIndex is the largest value an entry's 32-bit fields hold: a graph
// takes at most that many events and stored parents.
const maxIndex = math.MaxUint32

// room returns an error if the graph, holding have of what, cannot take
// add more without passing maxIndex.
func room(what string, have, add int) error {
	if uint64(have)+uint64(add) > maxIndex {
		return fmt.Errorf("causal: %d more %s would pass the graph's limit of %d", add, what, uint64(maxIndex))
	}
	return nil
}

// Graph is a replica's copy of the event graph. The zero value is not
// usable; call New.
type Graph struct {
	entries []entry
	n       LV // number of events: where the last entry ends
	// parents holds the stored parents of every entry back to back, each
	// entry's sorted ascending, and parentEnts the index of the entry
	// that holds each: a traversal hops from an entry to its parents'
	// entries without a search. Both are append-only, so a slice of
	// parents handed out stays valid whatever is added later.
	parents    []LV
	parentEnts []uint32
	agents     []string
	agentIdx   map[string]int
	byAgent    [][]uint32 // per agent, the indexes of its entries sorted by seqStart
	frontier   []LV       // events with no children, sorted ascending
	searches   uint64     // binary searches for the entry holding an LV
}

// New returns an empty event graph.
func New() *Graph {
	return &Graph{agentIdx: make(map[string]int)}
}

// Len returns the total number of events in the graph.
func (g *Graph) Len() int { return int(g.n) }

// Frontier returns the current version of the graph: the set of events
// with no children, sorted ascending. The returned slice is a copy.
func (g *Graph) Frontier() Frontier {
	return Frontier(append([]LV(nil), g.frontier...))
}

// Heads is Frontier without the copy: the graph's own frontier, capacity
// capped, valid until the next event is added. It must not be written.
func (g *Graph) Heads() Frontier {
	return Frontier(g.frontier[:len(g.frontier):len(g.frontier)])
}

// AgentID interns an agent name and returns its index.
func (g *Graph) agentID(agent string) int {
	if idx, ok := g.agentIdx[agent]; ok {
		return idx
	}
	idx := len(g.agents)
	g.agents = append(g.agents, agent)
	g.agentIdx[agent] = idx
	g.byAgent = append(g.byAgent, nil)
	return idx
}

// Agents returns the interned agent names in first-seen order.
func (g *Graph) Agents() []string { return append([]string(nil), g.agents...) }

// end returns the LV entry i ends before.
func (g *Graph) end(i int) LV {
	if i+1 < len(g.entries) {
		return LV(g.entries[i+1].start)
	}
	return g.n
}

// seqEnd returns the sequence number entry i ends before.
func (g *Graph) seqEnd(i int) int {
	e := &g.entries[i]
	return e.seqStart + int(g.end(i)) - int(e.start)
}

// parentRange returns the stretch of g.parents (and g.parentEnts) that
// holds the parents of entry i's first event.
func (g *Graph) parentRange(i int) (lo, hi int) {
	if i+1 < len(g.entries) {
		return int(g.entries[i].parents), int(g.entries[i+1].parents)
	}
	return int(g.entries[i].parents), len(g.parents)
}

// storedParents returns the parents of entry i's first event: nil for a
// root event, else a slice of the arena capped at its own length.
func (g *Graph) storedParents(i int) []LV {
	lo, hi := g.parentRange(i)
	if lo == hi {
		return nil
	}
	return g.parents[lo:hi:hi]
}

// seqSlot returns the place, in agent aid's entries sorted by seq, of the
// first one that ends after seq: the entry holding (aid, seq) if there is
// one, else the place an entry starting at seq goes.
func (g *Graph) seqSlot(aid, seq int) int {
	idxs := g.byAgent[aid]
	lo, hi := 0, len(idxs)
	if hi > 0 && g.seqEnd(int(idxs[hi-1])) <= seq {
		return hi // the agent's events arrive in order, mostly
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.seqEnd(int(idxs[mid])) > seq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// admits validates a run of count events from seq on, by whichever agent,
// against what the graph can take.
func (g *Graph) admits(seq, count int) error {
	if count < 1 {
		return fmt.Errorf("causal: Add count %d < 1", count)
	}
	if seq < 0 || seq > math.MaxInt-count {
		return fmt.Errorf("causal: Add seq %d out of range", seq)
	}
	return room("events", int(g.n), count)
}

// slotFor returns the place of a run of count events from seq on among
// agent aid's entries. Out-of-order arrival of an agent's seq ranges is
// allowed (it occurs when a graph is re-serialised in a different
// topological order); overlap with events already present is not.
func (g *Graph) slotFor(aid, seq, count int) (int, error) {
	slot := g.seqSlot(aid, seq)
	if idxs := g.byAgent[aid]; slot < len(idxs) && g.entries[idxs[slot]].seqStart < seq+count {
		return 0, fmt.Errorf("causal: duplicate events %s/%d..%d", g.agents[aid], seq, seq+count)
	}
	return slot, nil
}

// place validates a run of count events by agent from seq on and returns
// the agent's number and the run's place among the agent's entries. A run
// that is refused for its shape leaves the agent unnumbered.
func (g *Graph) place(agent string, seq, count int) (aid, slot int, err error) {
	if err := g.admits(seq, count); err != nil {
		return 0, 0, err
	}
	aid = g.agentID(agent)
	slot, err = g.slotFor(aid, seq, count)
	return aid, slot, err
}

// inRange returns an error if one of parents is not an event of the graph.
func (g *Graph) inRange(parents []LV) error {
	for _, p := range parents {
		if p < 0 || p >= g.n {
			return fmt.Errorf("causal: parent %d out of range [0,%d)", p, g.n)
		}
	}
	return nil
}

// Add appends count events by agent starting at sequence number seq, with
// the given parents (LVs of already-present events), and returns the LV of
// the first new event. Parents are defensively reduced to their dominators
// so the graph stays transitively reduced. Within the run, each event's
// parent is its predecessor. Parents is not kept; each is searched for
// (AddNum takes them found).
//
// Add returns an error if count < 1, if any parent is out of range, if
// (agent, seq) overlaps events already present, or if the graph would
// outgrow its 32-bit indexes.
func (g *Graph) Add(agent string, seq, count int, parents []LV) (LV, error) {
	if err := g.inRange(parents); err != nil {
		return 0, err
	}
	var buf [4]Ref
	return g.AddNum(agent, g.AgentNum(agent), seq, count, g.Refs(parents, buf[:0]))
}

// AddNum is Add for a caller that holds the agent's number (AgentNum) and
// the parents as Refs — a merge or a loader that looked them up — and so
// costs no look-up of the name and no search. aid is -1 for an agent the
// graph has not met, which the run numbers if it is admitted. Every check
// Add makes, it makes, and it refuses a number the graph has not given out.
func (g *Graph) AddNum(agent string, aid, seq, count int, parents []Ref) (LV, error) {
	if aid < -1 || aid >= len(g.byAgent) {
		return 0, fmt.Errorf("causal: Add agent number %d out of range [-1,%d)", aid, len(g.byAgent))
	}
	for _, p := range parents {
		if !g.holds(p) {
			return 0, fmt.Errorf("causal: parent %d is not an event of entry %d", p.LV, p.Ent)
		}
	}
	if err := g.admits(seq, count); err != nil {
		return 0, err
	}
	if aid < 0 {
		aid = g.agentID(agent)
	}
	slot, err := g.slotFor(aid, seq, count)
	if err != nil {
		return 0, err
	}
	return g.pushReduced(aid, slot, seq, count, parents)
}

// pushReduced appends a placed run whose first event has the given
// parents, reduced here to their dominators.
func (g *Graph) pushReduced(aid, slot, seq, count int, parents []Ref) (LV, error) {
	// A single parent is its own dominator set.
	var buf [4]Ref
	if len(parents) > 1 {
		parents = g.DominatorsInto(parents, buf[:0])
	}
	if err := room("parents", len(g.parents), len(parents)); err != nil {
		return 0, err
	}
	return g.push(aid, slot, seq, count, parents), nil
}

// Append is Add with the graph's frontier as the parents: how a replica
// adds events of its own. The frontier is reduced already, so nothing is
// searched for dominators.
func (g *Graph) Append(agent string, seq, count int) (LV, error) {
	aid, slot, err := g.place(agent, seq, count)
	if err != nil {
		return 0, err
	}
	if err := room("parents", len(g.parents), len(g.frontier)); err != nil {
		return 0, err
	}
	// Typing alone hangs every run on the newest event, in the last entry.
	if last := g.n - 1; len(g.frontier) == 1 && g.frontier[0] == last {
		return g.push(aid, slot, seq, count, []Ref{{last, uint32(len(g.entries) - 1)}}), nil
	}
	var buf [4]Ref
	return g.push(aid, slot, seq, count, g.Refs(g.frontier, buf[:0])), nil
}

// push appends a validated run whose first event has the reduced parent
// set red and returns its first LV.
func (g *Graph) push(aid, slot, seq, count int, red []Ref) LV {
	start := g.n
	g.n += LV(count)
	// The run extends the last entry if it continues it: same agent,
	// consecutive seq, and the sole parent is the immediately preceding
	// event — the greatest of the frontier, whose place the run's last
	// event takes. The entry's end and its seqs' are implied by g.n.
	if n := len(g.entries); n > 0 && len(red) == 1 && red[0].LV == start-1 {
		last := &g.entries[n-1]
		if last.agent == uint32(aid) && last.seqStart+int(start)-int(last.start) == seq {
			g.frontier[len(g.frontier)-1] = g.n - 1
			return start
		}
	}
	off := len(g.parents)
	for _, p := range red {
		g.parents = append(g.parents, p.LV)
		g.parentEnts = append(g.parentEnts, p.Ent)
	}
	g.advanceFrontier(g.n-1, g.parents[off:])
	g.byAgent[aid] = slices.Insert(g.byAgent[aid], slot, uint32(len(g.entries)))
	g.entries = append(g.entries, entry{
		seqStart: seq,
		start:    uint32(start),
		agent:    uint32(aid),
		heads:    uint32(len(g.frontier)),
		parents:  uint32(off),
	})
	return start
}

// advanceFrontier updates the graph frontier after adding a run that ends
// at last and whose first event has the given (reduced) parents. The
// run's last event is the newest LV of the graph, so its place in the
// ascending frontier is the end.
func (g *Graph) advanceFrontier(last LV, parents []LV) {
	out := g.frontier[:0]
	for _, f := range g.frontier {
		if !containsLV(parents, f) {
			out = append(out, f)
		}
	}
	g.frontier = append(out, last)
}

func containsLV(s []LV, v LV) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// AgentEntries says how many entries an agent is about to get.
type AgentEntries struct {
	Agent   string
	Entries int
}

// Reserve makes room for entries more entries storing parents more
// parents between them, so that adding them allocates nothing: a caller
// that knows what it is about to add (a loader that has decoded it) sizes
// the graph before filling it and leaves no slack behind. perAgent splits
// the entries by agent, in the order the agents will first be seen, and
// numbers those the graph has not met: AgentNum says what number a name
// got. An agent named twice gets the larger of its two rooms. Room already
// there is kept; room that is missing is added the way append adds it.
func (g *Graph) Reserve(entries, parents int, perAgent []AgentEntries) {
	g.entries = slices.Grow(g.entries, entries)
	g.parents = slices.Grow(g.parents, parents)
	g.parentEnts = slices.Grow(g.parentEnts, parents)
	g.agents = slices.Grow(g.agents, len(perAgent))
	g.byAgent = slices.Grow(g.byAgent, len(perAgent))
	for _, a := range perAgent {
		aid := g.agentID(a.Agent)
		g.byAgent[aid] = slices.Grow(g.byAgent[aid], a.Entries)
	}
}

// Entries returns the number of run-length entries the graph is stored
// in.
func (g *Graph) Entries() int { return len(g.entries) }

// Bytes returns the heap the graph holds, from the capacities of its
// arrays: the entries, the two parent arenas, the per-agent indexes, the
// agent names and an estimate of their map.
func (g *Graph) Bytes() int {
	const mapEntry = 48 // a string key, an int and their share of a bucket
	b := cap(g.entries)*int(unsafe.Sizeof(entry{})) +
		cap(g.parents)*int(unsafe.Sizeof(LV(0))) + cap(g.parentEnts)*4 +
		cap(g.frontier)*int(unsafe.Sizeof(LV(0))) +
		cap(g.agents)*int(unsafe.Sizeof("")) + cap(g.byAgent)*int(unsafe.Sizeof([]uint32(nil))) +
		len(g.agents)*mapEntry
	for aid, idxs := range g.byAgent {
		b += cap(idxs)*4 + len(g.agents[aid])
	}
	return b
}

// Searches returns the number of binary searches the graph has made for
// the entry holding an LV. A traversal searches once for each head it
// starts from and follows the entries' parent links from there; tests
// hold it to that.
func (g *Graph) Searches() uint64 { return g.searches }

// entryIdx returns the index of the entry containing lv when
// 0 <= lv < Len, len(entries) when lv >= Len.
func (g *Graph) entryIdx(lv LV) int {
	g.searches++
	es := g.entries
	if lv >= g.n {
		return len(es)
	}
	if lv < 0 {
		return 0
	}
	// es[lo].start <= lv < es[hi].start throughout, taking es[len(es)]
	// to start at g.n; recent events are asked for most.
	lo, hi := 0, len(es)
	if LV(es[hi-1].start) <= lv {
		return hi - 1
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if LV(es[mid].start) <= lv {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// entryOf returns the index of the entry containing lv, which must be an
// event of the graph.
func (g *Graph) entryOf(lv LV) int {
	if lv < 0 || lv >= g.n {
		panic(fmt.Sprintf("causal: LV %d out of range (len %d)", lv, g.Len()))
	}
	return g.entryIdx(lv)
}

// holds reports whether r's entry holds r's LV.
func (g *Graph) holds(r Ref) bool {
	i := int(r.Ent)
	return i < len(g.entries) && LV(g.entries[i].start) <= r.LV && r.LV < g.end(i)
}

// RefOf returns the Ref of lv, by search; false if lv is not an event.
func (g *Graph) RefOf(lv LV) (Ref, bool) {
	if lv < 0 || lv >= g.n {
		return Ref{}, false
	}
	return Ref{lv, uint32(g.entryIdx(lv))}, true
}

// Refs appends to buf[:0] the Refs of lvs, events of the graph, by search.
func (g *Graph) Refs(lvs []LV, buf []Ref) []Ref {
	out := buf[:0]
	for _, lv := range lvs {
		out = append(out, Ref{lv, uint32(g.entryOf(lv))})
	}
	return out
}

// ParentsOf returns the parents of the event at lv, sorted ascending.
// The result aliases internal storage for entry starts; callers must not
// modify it.
func (g *Graph) ParentsOf(lv LV) []LV {
	i := g.entryOf(lv)
	if lv == LV(g.entries[i].start) {
		return g.storedParents(i)
	}
	return []LV{lv - 1}
}

// idIn returns the wire ID of the event at lv, which entry i holds.
func (g *Graph) idIn(i int, lv LV) RawID {
	e := &g.entries[i]
	return RawID{Agent: g.agents[e.agent], Seq: e.seqStart + int(lv) - int(e.start)}
}

// IDOf returns the wire ID of the event at lv.
func (g *Graph) IDOf(lv LV) RawID { return g.idIn(g.entryOf(lv), lv) }

// NumOf is IDOf of a Ref, read off its entry: the number of the event's
// agent (AgentNum) and its sequence number. r must be an event of the graph.
func (g *Graph) NumOf(r Ref) (aid, seq int) {
	e := &g.entries[r.Ent]
	return int(e.agent), e.seqStart + int(r.LV) - int(e.start)
}

// LVOf maps a wire ID to its LV, reporting whether the event is known.
func (g *Graph) LVOf(id RawID) (LV, bool) {
	at, known, _ := g.SeqRun(g.AgentNum(id.Agent), id.Seq, 1)
	return at.LV, known
}

// HasID reports whether the event with the given wire ID is in the graph.
func (g *Graph) HasID(id RawID) bool {
	_, ok := g.LVOf(id)
	return ok
}

// SeqRun reports whether the event (aid, seq) is known, the agent by its
// number (AgentNum; none is known under -1), and for how many consecutive
// sequence numbers from seq on (n, at most max) the answer stays the same.
// When known, at is its Ref and the n events are at's entry's LVs from at
// on. A caller holding a run of one agent's events splits it into known
// and unknown stretches with one lookup per stretch.
func (g *Graph) SeqRun(aid, seq, max int) (at Ref, known bool, n int) {
	if aid < 0 || aid >= len(g.byAgent) {
		return Ref{}, false, max
	}
	idxs := g.byAgent[aid]
	slot := g.seqSlot(aid, seq)
	if slot == len(idxs) {
		return Ref{}, false, max
	}
	i := int(idxs[slot])
	if e := &g.entries[i]; e.seqStart <= seq {
		return Ref{LV(e.start) + LV(seq-e.seqStart), uint32(i)}, true, min(max, g.seqEnd(i)-seq)
	}
	return Ref{}, false, min(max, g.entries[i].seqStart-seq)
}

// AgentNum returns the number the graph knows agent by, for AddNum and
// SeqRun — agents are numbered as they are first met, by Add or by
// Reserve — or -1 for an agent the graph has not met.
func (g *Graph) AgentNum(agent string) int {
	if aid, ok := g.agentIdx[agent]; ok {
		return aid
	}
	return -1
}

// SeqEnd returns the next unused sequence number for agent (0 if the agent
// has generated no events).
func (g *Graph) SeqEnd(agent string) int {
	aid, ok := g.agentIdx[agent]
	if !ok || len(g.byAgent[aid]) == 0 {
		return 0
	}
	idxs := g.byAgent[aid]
	return g.seqEnd(int(idxs[len(idxs)-1]))
}

// EachEntry calls fn for each run-length entry in storage order. fn
// receives the span, the agent name, the starting seq, and the parents of
// the span's first event. Iteration stops if fn returns false.
func (g *Graph) EachEntry(fn func(span Span, agent string, seqStart int, parents []LV) bool) {
	g.EachEntryIn(Span{0, g.n}, fn)
}

// EachEntryIn is EachEntry restricted to the events of sp: fn sees every
// entry that overlaps sp, clipped to it. An entry clipped at its start
// begins mid-run, so its first event's sole parent is its predecessor;
// that one-element parents slice is valid only during the call.
func (g *Graph) EachEntryIn(sp Span, fn func(span Span, agent string, seqStart int, parents []LV) bool) {
	var prev [1]LV
	for w := g.EntriesIn(sp); ; {
		i, span, ok := w.next()
		if !ok {
			return
		}
		e, parents := &g.entries[i], g.storedParents(i)
		if span.Start > LV(e.start) {
			prev[0] = span.Start - 1
			parents = prev[:]
		}
		if !fn(span, g.agents[e.agent], e.seqStart+int(span.Start)-int(e.start), parents) {
			return
		}
	}
}

// Entries is EachEntryIn read one entry at a time: each entry that
// overlaps a span, clipped to it, and its first event's parents, read off
// the links stored beside them without a search — as wire IDs (NextIDs),
// for a caller that sends them somewhere, or as Refs (NextRefs), for one
// that hands them back to the graph. Both append the parents to the
// caller's buffer, so a walk whose caller keeps that buffer allocates
// nothing.
type Entries struct {
	g  *Graph
	sp Span
	i  int // the entry the walk reads next
}

// EntriesIn starts a walk of the entries that overlap sp, with its one
// search.
func (g *Graph) EntriesIn(sp Span) Entries {
	w := Entries{g: g, sp: sp, i: len(g.entries)}
	if sp.Len() > 0 {
		w.i = g.entryIdx(sp.Start)
	}
	return w
}

// next moves past the walk's next entry and returns its index and its
// span, clipped; ok is false once the span is done.
func (w *Entries) next() (i int, span Span, ok bool) {
	g, i := w.g, w.i
	if i >= len(g.entries) || LV(g.entries[i].start) >= w.sp.End {
		return 0, Span{}, false
	}
	w.i++
	return i, Span{max(LV(g.entries[i].start), w.sp.Start), min(g.end(i), w.sp.End)}, true
}

// NextIDs returns the walk's next entry, clipped to the span, the ID of its
// first event and that event's parents, appended to buf[:0]; ok is false
// once the span is done.
func (w *Entries) NextIDs(buf []RawID) (span Span, id RawID, parents []RawID, ok bool) {
	i, span, ok := w.next()
	if !ok {
		return Span{}, RawID{}, nil, false
	}
	g := w.g
	parents = buf[:0]
	if span.Start > LV(g.entries[i].start) {
		parents = append(parents, g.idIn(i, span.Start-1))
	} else {
		for k, hi := g.parentRange(i); k < hi; k++ {
			parents = append(parents, g.idIn(int(g.parentEnts[k]), g.parents[k]))
		}
	}
	return span, g.idIn(i, span.Start), parents, true
}

// NextRefs returns the walk's next entry, clipped to the span, the Ref of
// its last event and its first event's parents, appended to buf[:0]; ok
// is false once the span is done. An entry clipped at its start is the
// only one whose parent is in the entry itself.
func (w *Entries) NextRefs(buf []Ref) (span Span, last Ref, parents []Ref, ok bool) {
	i, span, ok := w.next()
	if !ok {
		return Span{}, Ref{}, nil, false
	}
	g := w.g
	parents = buf[:0]
	if span.Start > LV(g.entries[i].start) {
		parents = append(parents, Ref{span.Start - 1, uint32(i)})
	} else {
		for k, hi := g.parentRange(i); k < hi; k++ {
			parents = append(parents, Ref{g.parents[k], g.parentEnts[k]})
		}
	}
	return span, Ref{span.End - 1, uint32(i)}, parents, true
}

// EachAgentRun calls fn for each maximal run [seqStart, seqEnd) of
// consecutive sequence numbers the graph holds for each agent, agents
// in first-seen order and runs ascending. Adjacent entries that abut in
// seq space are coalesced, so the runs are the minimal run-length
// description of the per-agent event sets — the basis of a version
// summary. The per-agent index is maintained incrementally by Add, so
// this walk costs O(entries), never O(events). Iteration stops if fn
// returns false.
func (g *Graph) EachAgentRun(fn func(agent string, seqStart, seqEnd int) bool) {
	for aid, idxs := range g.byAgent {
		for i := 0; i < len(idxs); {
			start, end := g.entries[idxs[i]].seqStart, g.seqEnd(int(idxs[i]))
			i++
			for i < len(idxs) && g.entries[idxs[i]].seqStart == end {
				end = g.seqEnd(int(idxs[i]))
				i++
			}
			if !fn(g.agents[aid], start, end) {
				return
			}
		}
	}
}

// EntrySpanAt returns the maximal run starting at lv such that every event
// in [lv, end) after the first has its predecessor as sole parent and all
// belong to one storage entry. Used by replay to batch linear runs.
func (g *Graph) EntrySpanAt(lv LV) Span {
	return Span{lv, g.end(g.entryOf(lv))}
}
