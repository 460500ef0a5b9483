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
	"sort"
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

// entry is one run-length encoded chunk of the graph: events
// [start, end) by one agent with consecutive seqs beginning at seqStart.
// parents are the parents of the event at start; every later event in the
// entry has exactly one parent, its predecessor.
type entry struct {
	span  Span
	agent int32 // index into Graph.agents
	// heads is the size of the frontier of the graph's prefix that ends
	// with this entry, recorded when the entry is added (extending the
	// entry moves its head along and leaves the count as it is). A version
	// inside the entry can be critical only if heads is 1 (critical.go).
	heads    int32
	seqStart int
	parents  []LV // sorted ascending; empty for root events
}

// agentSpan maps a run of one agent's seqs to LVs for ID→LV lookup.
type agentSpan struct {
	seqStart, seqEnd int // half-open
	lvStart          LV
}

// Graph is a replica's copy of the event graph. The zero value is not
// usable; call New.
type Graph struct {
	entries  []entry
	agents   []string
	agentIdx map[string]int
	byAgent  [][]agentSpan // per agent, sorted by seqStart
	frontier []LV          // events with no children, sorted ascending
}

// New returns an empty event graph.
func New() *Graph {
	return &Graph{agentIdx: make(map[string]int)}
}

// Len returns the total number of events in the graph.
func (g *Graph) Len() int {
	if len(g.entries) == 0 {
		return 0
	}
	return int(g.entries[len(g.entries)-1].span.End)
}

// NextLV returns the LV that the next added event will receive.
func (g *Graph) NextLV() LV { return LV(g.Len()) }

// Frontier returns the current version of the graph: the set of events
// with no children, sorted ascending. The returned slice is a copy.
func (g *Graph) Frontier() Frontier {
	return Frontier(append([]LV(nil), g.frontier...))
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

// Add appends count events by agent starting at sequence number seq, with
// the given parents (LVs of already-present events), and returns the LV of
// the first new event. Parents are defensively reduced to their dominators
// so the graph stays transitively reduced. Within the run, each event's
// parent is its predecessor.
//
// Add returns an error if count < 1, if any parent is out of range, or if
// (agent, seq) overlaps events already present.
func (g *Graph) Add(agent string, seq, count int, parents []LV) (LV, error) {
	if count < 1 {
		return 0, fmt.Errorf("causal: Add count %d < 1", count)
	}
	if seq < 0 {
		return 0, fmt.Errorf("causal: Add seq %d < 0", seq)
	}
	start := g.NextLV()
	for _, p := range parents {
		if p < 0 || p >= start {
			return 0, fmt.Errorf("causal: parent %d out of range [0,%d)", p, start)
		}
	}
	aid := g.agentID(agent)
	spans := g.byAgent[aid]
	// Locate the insertion point in the agent's seq-sorted span list and
	// reject overlaps. Out-of-order arrival of an agent's seq ranges is
	// allowed (it occurs when a graph is re-serialised in a different
	// topological order).
	insIdx := sort.Search(len(spans), func(i int) bool { return spans[i].seqStart >= seq+count })
	if insIdx > 0 && spans[insIdx-1].seqEnd > seq {
		return 0, fmt.Errorf("causal: duplicate events %s/%d..%d", agent, seq, seq+count)
	}
	// red is the reduced parent set. At most one parent is its own
	// dominator set and needs no search; the graph's copy of it (own) is
	// made only if an entry will store it, so a caller's scratch slice
	// never escapes through Add.
	red := parents
	var own []LV
	if len(parents) > 1 {
		own = g.Dominators(parents)
		red = own
	}

	// Try to extend the previous entry: same agent, consecutive seq, and
	// the sole parent is the immediately preceding event.
	if n := len(g.entries); n > 0 {
		last := &g.entries[n-1]
		if last.agent == int32(aid) &&
			last.seqStart+last.span.Len() == seq &&
			len(red) == 1 && red[0] == last.span.End-1 {
			last.span.End += LV(count)
			// The extended entry is the agent's span immediately before
			// the insertion point.
			g.byAgent[aid][insIdx-1].seqEnd += count
			g.advanceFrontier(start, count, red)
			return start, nil
		}
	}

	if len(parents) <= 1 {
		own = append(own, parents...)
	}
	g.advanceFrontier(start, count, red)
	g.entries = append(g.entries, entry{
		span:     Span{start, start + LV(count)},
		agent:    int32(aid),
		heads:    int32(len(g.frontier)),
		seqStart: seq,
		parents:  own,
	})
	g.byAgent[aid] = append(g.byAgent[aid], agentSpan{})
	copy(g.byAgent[aid][insIdx+1:], g.byAgent[aid][insIdx:])
	g.byAgent[aid][insIdx] = agentSpan{
		seqStart: seq,
		seqEnd:   seq + count,
		lvStart:  start,
	}
	return start, nil
}

// advanceFrontier updates the graph frontier after adding the run
// [start, start+count) whose first event has the given (reduced) parents.
// The run's last event is the newest LV of the graph, so its place in the
// ascending frontier is the end.
func (g *Graph) advanceFrontier(start LV, count int, parents []LV) {
	out := g.frontier[:0]
	for _, f := range g.frontier {
		if !containsLV(parents, f) {
			out = append(out, f)
		}
	}
	g.frontier = append(out, start+LV(count)-1)
}

func containsLV(s []LV, v LV) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// entryIdx returns the index of the first entry that ends after lv: the
// entry containing lv when 0 <= lv < Len, len(entries) when lv >= Len.
func (g *Graph) entryIdx(lv LV) int {
	return sort.Search(len(g.entries), func(i int) bool { return g.entries[i].span.End > lv })
}

// entryFor returns the entry containing lv.
func (g *Graph) entryFor(lv LV) *entry {
	i := g.entryIdx(lv)
	if i == len(g.entries) || lv < 0 {
		panic(fmt.Sprintf("causal: LV %d out of range (len %d)", lv, g.Len()))
	}
	return &g.entries[i]
}

// ParentsOf returns the parents of the event at lv, sorted ascending.
// The result aliases internal storage for entry starts; callers must not
// modify it.
func (g *Graph) ParentsOf(lv LV) []LV {
	e := g.entryFor(lv)
	if lv == e.span.Start {
		return e.parents
	}
	return []LV{lv - 1}
}

// IDOf returns the wire ID of the event at lv.
func (g *Graph) IDOf(lv LV) RawID {
	e := g.entryFor(lv)
	return RawID{
		Agent: g.agents[e.agent],
		Seq:   e.seqStart + int(lv-e.span.Start),
	}
}

// LVOf maps a wire ID to its LV, reporting whether the event is known.
func (g *Graph) LVOf(id RawID) (LV, bool) {
	aid, ok := g.agentIdx[id.Agent]
	if !ok {
		return 0, false
	}
	spans := g.byAgent[aid]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].seqEnd > id.Seq })
	if i == len(spans) || spans[i].seqStart > id.Seq {
		return 0, false
	}
	return spans[i].lvStart + LV(id.Seq-spans[i].seqStart), true
}

// HasID reports whether the event with the given wire ID is in the graph.
func (g *Graph) HasID(id RawID) bool {
	_, ok := g.LVOf(id)
	return ok
}

// SeqRun reports whether the event (agent, seq) is known, and for how
// many consecutive sequence numbers from seq on (n, at most max) the
// answer stays the same. When known, lv is the LV of (agent, seq) and the
// n events hold consecutive LVs. It lets a caller holding a run of one
// agent's events split it into known and unknown stretches with one
// lookup per stretch.
func (g *Graph) SeqRun(agent string, seq, max int) (lv LV, known bool, n int) {
	aid, ok := g.agentIdx[agent]
	if !ok {
		return 0, false, max
	}
	spans := g.byAgent[aid]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].seqEnd > seq })
	if i == len(spans) {
		return 0, false, max
	}
	if sp := spans[i]; sp.seqStart <= seq {
		return sp.lvStart + LV(seq-sp.seqStart), true, min(max, sp.seqEnd-seq)
	}
	return 0, false, min(max, spans[i].seqStart-seq)
}

// SeqEnd returns the next unused sequence number for agent (0 if the agent
// has generated no events).
func (g *Graph) SeqEnd(agent string) int {
	aid, ok := g.agentIdx[agent]
	if !ok {
		return 0
	}
	spans := g.byAgent[aid]
	if len(spans) == 0 {
		return 0
	}
	return spans[len(spans)-1].seqEnd
}

// EachEntry calls fn for each run-length entry in storage order. fn
// receives the span, the agent name, the starting seq, and the parents of
// the span's first event. Iteration stops if fn returns false.
func (g *Graph) EachEntry(fn func(span Span, agent string, seqStart int, parents []LV) bool) {
	for i := range g.entries {
		e := &g.entries[i]
		if !fn(e.span, g.agents[e.agent], e.seqStart, e.parents) {
			return
		}
	}
}

// EachEntryIn is EachEntry restricted to the events of sp: fn sees every
// entry that overlaps sp, clipped to it. An entry clipped at its start
// begins mid-run, so its first event's sole parent is its predecessor;
// that one-element parents slice is valid only during the call.
func (g *Graph) EachEntryIn(sp Span, fn func(span Span, agent string, seqStart int, parents []LV) bool) {
	if sp.Len() <= 0 {
		return
	}
	i := g.entryIdx(sp.Start)
	var prev [1]LV
	for ; i < len(g.entries) && g.entries[i].span.Start < sp.End; i++ {
		e := &g.entries[i]
		span, seq, parents := e.span, e.seqStart, e.parents
		if span.Start < sp.Start {
			seq += int(sp.Start - span.Start)
			span.Start = sp.Start
			prev[0] = sp.Start - 1
			parents = prev[:]
		}
		span.End = min(span.End, sp.End)
		if !fn(span, g.agents[e.agent], seq, parents) {
			return
		}
	}
}

// EachAgentRun calls fn for each maximal run [seqStart, seqEnd) of
// consecutive sequence numbers the graph holds for each agent, agents
// in first-seen order and runs ascending. Adjacent storage spans that
// abut in seq space are coalesced, so the runs are the minimal
// run-length description of the per-agent event sets — the basis of a
// version summary. The per-agent index is maintained incrementally by
// Add, so this walk costs O(spans), never O(events). Iteration stops
// if fn returns false.
func (g *Graph) EachAgentRun(fn func(agent string, seqStart, seqEnd int) bool) {
	for aid, spans := range g.byAgent {
		for i := 0; i < len(spans); {
			start, end := spans[i].seqStart, spans[i].seqEnd
			i++
			for i < len(spans) && spans[i].seqStart == end {
				end = spans[i].seqEnd
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
	e := g.entryFor(lv)
	return Span{lv, e.span.End}
}
