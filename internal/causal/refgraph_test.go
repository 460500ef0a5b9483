package causal

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// The graph as it was stored before its layout went flat — an entry with
// its own span and its own parents slice, a per-agent index that repeats
// each entry's seqs and first LV — kept as the model the flat graph is
// held to. refGraph.add is the Add of that layout, down to the order of
// its checks; dominators are taken from the per-event reference.

type refEntry struct {
	span     Span
	agent    int
	heads    int
	seqStart int
	parents  []LV
}

type refAgentSpan struct {
	seqStart, seqEnd int
	lvStart          LV
}

type refGraph struct {
	entries  []refEntry
	agents   []string
	agentIdx map[string]int
	byAgent  [][]refAgentSpan
	frontier []LV
}

func newRefGraph() *refGraph { return &refGraph{agentIdx: map[string]int{}} }

func (g *refGraph) len() int {
	if len(g.entries) == 0 {
		return 0
	}
	return int(g.entries[len(g.entries)-1].span.End)
}

// add mirrors Add; reduce is the dominator function (the flat graph under
// test supplies the per-event reference over itself).
func (g *refGraph) add(agent string, seq, count int, parents []LV, reduce func([]LV) []LV) (LV, error) {
	if count < 1 || seq < 0 {
		return 0, fmt.Errorf("bad run")
	}
	start := LV(g.len())
	for _, p := range parents {
		if p < 0 || p >= start {
			return 0, fmt.Errorf("parent out of range")
		}
	}
	aid, ok := g.agentIdx[agent]
	if !ok {
		aid = len(g.agents)
		g.agents = append(g.agents, agent)
		g.agentIdx[agent] = aid
		g.byAgent = append(g.byAgent, nil)
	}
	spans := g.byAgent[aid]
	insIdx := sort.Search(len(spans), func(i int) bool { return spans[i].seqStart >= seq+count })
	if insIdx > 0 && spans[insIdx-1].seqEnd > seq {
		return 0, fmt.Errorf("duplicate")
	}
	red := append([]LV(nil), parents...)
	if len(parents) > 1 {
		red = reduce(parents)
	}
	advance := func() {
		out := g.frontier[:0]
		for _, f := range g.frontier {
			if !slices.Contains(red, f) {
				out = append(out, f)
			}
		}
		g.frontier = append(out, start+LV(count)-1)
	}
	if n := len(g.entries); n > 0 {
		last := &g.entries[n-1]
		if last.agent == aid && last.seqStart+last.span.Len() == seq && len(red) == 1 && red[0] == last.span.End-1 {
			last.span.End += LV(count)
			g.byAgent[aid][insIdx-1].seqEnd += count
			advance()
			return start, nil
		}
	}
	advance()
	g.entries = append(g.entries, refEntry{Span{start, start + LV(count)}, aid, len(g.frontier), seq, red})
	g.byAgent[aid] = slices.Insert(g.byAgent[aid], insIdx, refAgentSpan{seq, seq + count, start})
	return start, nil
}

func (g *refGraph) entryFor(lv LV) *refEntry {
	i := sort.Search(len(g.entries), func(i int) bool { return g.entries[i].span.End > lv })
	return &g.entries[i]
}

func (g *refGraph) parentsOf(lv LV) []LV {
	if e := g.entryFor(lv); lv == e.span.Start {
		return e.parents
	}
	return []LV{lv - 1}
}

func (g *refGraph) idOf(lv LV) RawID {
	e := g.entryFor(lv)
	return RawID{g.agents[e.agent], e.seqStart + int(lv-e.span.Start)}
}

func (g *refGraph) seqRun(agent string, seq, max int) (LV, bool, int) {
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

func (g *refGraph) seqEnd(agent string) int {
	aid, ok := g.agentIdx[agent]
	if !ok || len(g.byAgent[aid]) == 0 {
		return 0
	}
	return g.byAgent[aid][len(g.byAgent[aid])-1].seqEnd
}

// seenEntry is one entry of a walk: its span, clipped, the agent and seq
// of its first event and that event's parents.
type seenEntry struct {
	span     Span
	agent    string
	seqStart int
	parents  []LV
}

func (g *refGraph) eachEntryIn(sp Span) []seenEntry {
	var out []seenEntry
	if sp.Len() <= 0 {
		return nil
	}
	for _, e := range g.entries {
		if e.span.End <= sp.Start || e.span.Start >= sp.End {
			continue
		}
		s := seenEntry{e.span, g.agents[e.agent], e.seqStart, slices.Clone(e.parents)}
		if s.span.Start < sp.Start {
			s.seqStart += int(sp.Start - s.span.Start)
			s.span.Start = sp.Start
			s.parents = []LV{sp.Start - 1}
		}
		s.span.End = min(s.span.End, sp.End)
		out = append(out, s)
	}
	return out
}

type agentRun struct {
	agent      string
	start, end int
}

func (g *refGraph) eachAgentRun() []agentRun {
	var out []agentRun
	for aid, spans := range g.byAgent {
		for i := 0; i < len(spans); {
			start, end := spans[i].seqStart, spans[i].seqEnd
			for i++; i < len(spans) && spans[i].seqStart == end; i++ {
				end = spans[i].seqEnd
			}
			out = append(out, agentRun{g.agents[aid], start, end})
		}
	}
	return out
}

// entriesOf reads every entry of g through NextRefs, the agent and seq
// off the entry's last event.
func entriesOf(g *Graph) []seenEntry {
	var out []seenEntry
	for w := g.EntriesIn(Span{0, LV(g.Len())}); ; {
		span, last, ps, ok := w.NextRefs(nil)
		if !ok {
			return out
		}
		aid, seq := g.NumOf(last)
		e := seenEntry{span, g.agents[aid], seq - span.Len() + 1, nil}
		for _, p := range ps {
			e.parents = append(e.parents, p.LV)
		}
		out = append(out, e)
	}
}

// sameEntries compares two entry lists, a nil parents slice equal to an
// empty one.
func sameEntries(a, b []seenEntry) bool {
	return slices.EqualFunc(a, b, func(x, y seenEntry) bool {
		return x.span == y.span && x.agent == y.agent && x.seqStart == y.seqStart && slices.Equal(x.parents, y.parents)
	})
}

// TestFlatGraphMatchesRef holds the flat graph to the pointerful model
// after every Add of a random history: seq ranges that arrive out of
// order, runs that extend the last entry across calls, adds with several
// parents some of them dominated or repeated, adds the graph must reject —
// on every accessor.
func TestFlatGraphMatchesRef(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, ref := New(), newRefGraph()
		reduce := func(lvs []LV) []LV { return refDominators(g, lvs) }
		agents := []string{"ann", "bob", "cy", "dee"}
		// Each agent's seqs are handed out in blocks, and the blocks of
		// an agent are added in a shuffled order: out-of-order arrival.
		type block struct {
			agent      string
			seq, count int
		}
		var blocks []block
		for _, a := range agents {
			for seq := 0; seq < 60; {
				n := 1 + rng.Intn(9)
				blocks = append(blocks, block{a, seq, n})
				seq += n
			}
		}
		// Mostly in order (so that entries get extended), sometimes not.
		for i := range blocks {
			if rng.Intn(5) == 0 {
				j := rng.Intn(len(blocks))
				blocks[i], blocks[j] = blocks[j], blocks[i]
			}
		}
		lastOf := map[string]LV{}
		for step, b := range blocks {
			n := g.Len()
			var ps []LV
			switch k := rng.Intn(6); {
			case n == 0:
			case k == 0: // the whole frontier
				ps = g.Frontier()
			case k <= 2: // the agent's own last event: the entry may extend
				if lv, ok := lastOf[b.agent]; ok {
					ps = []LV{lv}
				} else {
					ps = []LV{LV(rng.Intn(n))}
				}
			case k == 3: // the graph's last event
				ps = []LV{LV(n - 1)}
			default: // a few at random: dominated ones and repeats among them
				for i := 1 + rng.Intn(4); i > 0; i-- {
					ps = append(ps, LV(rng.Intn(n)))
				}
				if rng.Intn(2) == 0 {
					ps = append(ps, ps[0])
				}
			}
			// Now and then a run the graph must reject, as the model does.
			if rng.Intn(12) == 0 && n > 0 {
				id := g.IDOf(LV(rng.Intn(n)))
				_, err := g.Add(id.Agent, id.Seq, 1+rng.Intn(3), ps)
				_, refErr := ref.add(id.Agent, id.Seq, 1, ps, reduce)
				if err == nil || refErr == nil {
					t.Fatalf("seed %d step %d: duplicate %v accepted (%v, model %v)", seed, step, id, err, refErr)
				}
			}
			psCopy := slices.Clone(ps)
			want, refErr := ref.add(b.agent, b.seq, b.count, ps, reduce)
			got, err := g.Add(b.agent, b.seq, b.count, ps)
			if err != nil || refErr != nil || got != want {
				t.Fatalf("seed %d step %d: Add = %d, %v; model %d, %v", seed, step, got, err, want, refErr)
			}
			if !slices.Equal(ps, psCopy) {
				t.Fatalf("seed %d step %d: Add changed its parents argument", seed, step)
			}
			lastOf[b.agent] = got + LV(b.count) - 1
			compareWithRef(t, fmt.Sprintf("seed %d step %d", seed, step), g, ref, rng)
		}
	}
}

// compareWithRef checks every accessor of g against the model.
func compareWithRef(t *testing.T, at string, g *Graph, ref *refGraph, rng *rand.Rand) {
	t.Helper()
	n := LV(g.Len())
	if int(n) != ref.len() || g.Entries() != len(ref.entries) {
		t.Fatalf("%s: %d events in %d entries, model %d in %d", at, n, g.Entries(), ref.len(), len(ref.entries))
	}
	if !slices.Equal(g.Frontier(), Frontier(ref.frontier)) {
		t.Fatalf("%s: frontier %v, model %v", at, g.Frontier(), ref.frontier)
	}
	for i, e := range ref.entries {
		if got := g.entries[i].seq&soleHead != 0; got != (e.heads == 1) {
			t.Fatalf("%s: entry %d sole head %v, model %d heads", at, i, got, e.heads)
		}
		if got := g.entries[i].seqStart(); got != e.seqStart {
			t.Fatalf("%s: entry %d seq %d, model %d", at, i, got, e.seqStart)
		}
	}
	for lv := LV(0); lv < n; lv++ {
		if got, want := g.ParentsOf(lv), ref.parentsOf(lv); !slices.Equal(got, want) {
			t.Fatalf("%s: ParentsOf(%d) = %v, model %v", at, lv, got, want)
		}
		id := ref.idOf(lv)
		if got := g.IDOf(lv); got != id {
			t.Fatalf("%s: IDOf(%d) = %v, model %v", at, lv, got, id)
		}
		if got, ok := g.LVOf(id); !ok || got != lv {
			t.Fatalf("%s: LVOf(%v) = %d, %v, want %d", at, id, got, ok, lv)
		}
		if got, want := g.EntrySpanAt(lv), (Span{lv, ref.entryFor(lv).span.End}); got != want {
			t.Fatalf("%s: EntrySpanAt(%d) = %v, model %v", at, lv, got, want)
		}
	}
	for _, a := range append(ref.agents, "nobody") {
		if got, want := g.SeqEnd(a), ref.seqEnd(a); got != want {
			t.Fatalf("%s: SeqEnd(%s) = %d, model %d", at, a, got, want)
		}
		for seq := 0; seq < 64; seq++ {
			for _, max := range []int{1, 3, 100} {
				r, known, k := g.SeqRun(g.AgentNum(a), seq, max)
				rlv, rknown, rk := ref.seqRun(a, seq, max)
				if r.LV != rlv || known != rknown || k != rk || known && !g.holds(r) {
					t.Fatalf("%s: SeqRun(%s, %d, %d) = %v %v %d, model %d %v %d", at, a, seq, max, r, known, k, rlv, rknown, rk)
				}
			}
			if g.HasID(RawID{a, seq}) != func() bool { _, ok, _ := ref.seqRun(a, seq, 1); return ok }() {
				t.Fatalf("%s: HasID(%s/%d) disagrees with the model", at, a, seq)
			}
		}
	}
	if got, want := entriesOf(g), ref.eachEntryIn(Span{0, n}); !sameEntries(got, want) {
		t.Fatalf("%s: entries %v, model %v", at, got, want)
	}
	// The walk, whole and clipped at every offset on small graphs, at
	// random ones on larger: one entry at a time, in wire form and as
	// Refs, read off the parent links.
	clip := func(sp Span) {
		want := ref.eachEntryIn(sp)
		k := 0
		var buf []RawID
		var refBuf []Ref
		for ids, refs := g.EntriesIn(sp), g.EntriesIn(sp); ; k++ {
			span, id, parents, ok := ids.NextIDs(buf)
			rspan, last, rparents, rok := refs.NextRefs(refBuf)
			if ok != rok {
				t.Fatalf("%s: EntriesIn(%v) entry %d: NextIDs ok %v, NextRefs ok %v", at, sp, k, ok, rok)
			}
			if !ok {
				break
			}
			if k == len(want) {
				t.Fatalf("%s: EntriesIn(%v) has more entries than the model's %d", at, sp, k)
			}
			e := want[k]
			var wantParents []RawID
			for _, p := range e.parents {
				wantParents = append(wantParents, ref.idOf(p))
			}
			if span != e.span || id != (RawID{e.agent, e.seqStart}) || !slices.Equal(parents, wantParents) {
				t.Fatalf("%s: NextIDs(%v) entry %d = %v %v %v, model %v %v", at, sp, k, span, id, parents, e, wantParents)
			}
			lvs := make([]LV, len(rparents))
			for j, r := range rparents {
				if lvs[j] = r.LV; !g.holds(r) {
					t.Fatalf("%s: NextRefs(%v) entry %d: parent %v is not its entry's", at, sp, k, r)
				}
			}
			if rspan != e.span || last.LV != e.span.End-1 || !g.holds(last) || !slices.Equal(lvs, e.parents) {
				t.Fatalf("%s: NextRefs(%v) entry %d = %v %v %v, model %v", at, sp, k, rspan, last, rparents, e)
			}
			buf, refBuf = parents, rparents // overwritten by the next entry
		}
		if k != len(want) {
			t.Fatalf("%s: EntriesIn(%v) saw %d entries, model %d", at, sp, k, len(want))
		}
	}
	clip(Span{0, n})
	if n <= 40 {
		for lo := LV(0); lo <= n; lo++ {
			for hi := lo; hi <= n+1; hi++ {
				clip(Span{lo, hi})
			}
		}
	} else {
		for i := 0; i < 30; i++ {
			lo := LV(rng.Intn(int(n)))
			clip(Span{lo, lo + LV(rng.Intn(int(n-lo)+2))})
		}
	}
	var runs []agentRun
	g.EachAgentRun(func(a string, s, e int) bool { runs = append(runs, agentRun{a, s, e}); return true })
	if want := ref.eachAgentRun(); !slices.Equal(runs, want) {
		t.Fatalf("%s: EachAgentRun = %v, model %v", at, runs, want)
	}
	// CriticalFrom against the per-event scan over the model's parents.
	bounds := refCriticalBoundaries(g)
	for _, from := range []LV{0, LV(rng.Intn(int(n) + 1)), n} {
		var want []Span
		for lv := from; lv < n; lv++ {
			if bounds[lv] {
				if k := len(want); k > 0 && want[k-1].End == lv {
					want[k-1].End++
				} else {
					want = append(want, Span{lv, lv + 1})
				}
			}
		}
		got, _, _ := g.CriticalFrom(from, nil)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: CriticalFrom(%d) = %v, want %v", at, from, got, want)
		}
	}
	// The links the traversals hop along: each stored parent's entry.
	for i := range g.entries {
		lo, hi := g.parentRange(i)
		for k := lo; k < hi; k++ {
			pe := int(g.parents[k].ent)
			if p := LV(g.parents[k].lv); p < LV(g.entries[pe].start) || p >= g.end(pe) {
				t.Fatalf("%s: entry %d parent %d linked to entry %d, which is [%d,%d)", at, i, p, pe, g.entries[pe].start, g.end(pe))
			}
		}
	}
}

// TestAppendMatchesAdd: Append is Add with the frontier as parents and the
// agent's next seq, for a frontier of one head and of several, without
// copying it; the agent's events may have come in through Add before.
func TestAppendMatchesAdd(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(60)
		a, _ := randomGraph(rand.New(rand.NewSource(seed)), n)
		b, _ := randomGraph(rand.New(rand.NewSource(seed)), n)
		if seed%2 == 1 {
			mustAdd(t, a, "me", 0, 3, a.Frontier())
			mustAdd(t, b, "me", 0, 3, b.Frontier())
		}
		me := b.NumberAgent("me")
		if again := b.NumberAgent("me"); again != me || b.AgentNum("me") != me {
			t.Fatalf("seed %d: NumberAgent gave %d, then %d; AgentNum says %d", seed, me, again, b.AgentNum("me"))
		}
		for i := 0; i < 5; i++ {
			n := 1 + rng.Intn(6)
			seq := a.SeqEnd("me")
			la, errA := a.Add("me", seq, n, a.Frontier())
			lb, errB := b.Append(me, n)
			if errA != nil || errB != nil || la != lb {
				t.Fatalf("seed %d: Add = %d, %v; Append = %d, %v", seed, la, errA, lb, errB)
			}
			if !sameEntries(entriesOf(a), entriesOf(b)) || !a.Frontier().Eq(b.Frontier()) {
				t.Fatalf("seed %d: Append built %v, Add %v", seed, entriesOf(b), entriesOf(a))
			}
			// Something concurrent, so that the next frontier has two heads.
			if a.Len() > 3 {
				p := []LV{LV(rng.Intn(a.Len() - 2))}
				mustAdd(t, a, "other", a.SeqEnd("other"), 2, p)
				mustAdd(t, b, "other", b.SeqEnd("other"), 2, p)
			}
		}
		for _, aid := range []int{-1, len(b.Agents())} {
			if _, err := b.Append(aid, 1); err == nil {
				t.Fatalf("Append took agent number %d of %d", aid, len(b.Agents()))
			}
		}
	}
}

// TestAddNumMatchesAdd: a graph rebuilt the loader's way — sized by
// Reserve, which numbers the agents, then filled entry by entry through
// AddNum, its parents looked up by number through SeqRun — is the graph
// Add built, in arrays that never grew; SeqRun finds what LVOf finds; and
// AddNum refuses what Add refuses, and a parent whose entry is not its own.
func TestAddNumMatchesAdd(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, _ := randomGraph(rng, 40+rng.Intn(80))
		var perAgent []AgentEntries
		num := map[string]int{}
		stored := 0
		entries := entriesOf(a)
		for _, e := range entries {
			if _, ok := num[e.agent]; !ok {
				num[e.agent] = len(perAgent)
				perAgent = append(perAgent, AgentEntries{Agent: e.agent})
			}
			perAgent[num[e.agent]].Entries++
			stored += len(e.parents)
		}
		b := New()
		b.Reserve(a.Entries(), stored, perAgent)
		// The numbers are the graph's to give: asked for, not assumed.
		for agent, at := range num {
			if n := b.AgentNum(agent); n != at {
				t.Fatalf("seed %d: AgentNum(%s) = %d after Reserve listed it at %d", seed, agent, n, at)
			}
		}
		if n := b.AgentNum("nobody"); n != -1 {
			t.Fatalf("seed %d: AgentNum knows an agent Reserve was not told of, as %d", seed, n)
		}
		for _, aid := range []int{-2, len(perAgent)} {
			if _, err := b.AddNum("nobody", aid, 0, 1, nil); err == nil {
				t.Fatalf("seed %d: AddNum took agent number %d of %d", seed, aid, len(perAgent))
			}
		}
		for _, aid := range []int{-1, len(perAgent)} {
			if r, ok, _ := b.SeqRun(aid, 0, 1); ok {
				t.Fatalf("seed %d: SeqRun(%d, 0) = %v of %d agents", seed, aid, r, len(perAgent))
			}
		}
		// lookup finds a's event lv in b by number, as a loader does.
		lookup := func(lv LV) Ref {
			id := a.IDOf(lv)
			r, ok, _ := b.SeqRun(num[id.Agent], id.Seq, 1)
			if !ok || r.LV != lv || !b.holds(r) {
				t.Fatalf("seed %d: SeqRun(%v) = %v, %v; want %d", seed, id, r, ok, lv)
			}
			return r
		}
		entryArr, parentArr := unsafe.SliceData(b.entries), unsafe.SliceData(b.parents)
		for _, e := range entries {
			ps := e.parents
			// With a parent of a parent, now and then: reduced away.
			if len(ps) > 0 && rng.Intn(3) == 0 {
				ps = append(slices.Clone(ps), a.ParentsOf(ps[0])...)
			}
			var refs []Ref
			for _, p := range ps {
				refs = append(refs, lookup(p))
			}
			lv, err := b.AddNum(e.agent, num[e.agent], e.seqStart, e.span.Len(), refs)
			if err != nil || lv != e.span.Start {
				t.Fatalf("seed %d: AddNum(%s/%d x%d) = %d, %v; want %d", seed, e.agent, e.seqStart, e.span.Len(), lv, err, e.span.Start)
			}
		}
		if !sameEntries(entriesOf(a), entriesOf(b)) || !a.Frontier().Eq(b.Frontier()) || !slices.Equal(a.Agents(), b.Agents()) {
			t.Fatalf("seed %d: AddNum built %v, Add %v", seed, entriesOf(b), entriesOf(a))
		}
		if unsafe.SliceData(b.entries) != entryArr || unsafe.SliceData(b.parents) != parentArr || b.Bytes() > a.Bytes() {
			t.Fatalf("seed %d: the reserved arrays moved, or hold %d B against the %d B of the graph that grew", seed, b.Bytes(), a.Bytes())
		}
		for lv := LV(0); lv < LV(a.Len()); lv++ {
			lookup(lv)
		}
		id := a.IDOf(LV(rng.Intn(a.Len())))
		if _, ok, _ := b.SeqRun(num[id.Agent], a.SeqEnd(id.Agent), 1); ok {
			t.Fatalf("seed %d: SeqRun found an event past the agent's last", seed)
		}
		last := lookup(LV(a.Len() - 1))
		if last.Ent == 0 {
			t.Fatalf("seed %d: a graph of one entry", seed)
		}
		for _, bad := range []struct {
			seq, count int
			parents    []Ref
		}{
			{id.Seq, 1, nil},             // an event the graph holds
			{a.SeqEnd(id.Agent), 0, nil}, // no events
			{-1, 1, nil},                 // no such sequence number
			{a.SeqEnd(id.Agent), 1, []Ref{{LV(a.Len()), 0}}},        // a parent that is not there
			{a.SeqEnd(id.Agent), 1, []Ref{{-1, 0}}},                 // nor there
			{a.SeqEnd(id.Agent), 1, []Ref{{last.LV, last.Ent + 1}}}, // an entry past the last
			{a.SeqEnd(id.Agent), 1, []Ref{{0, last.Ent}}},           // an entry that does not hold it
			{a.SeqEnd(id.Agent), math.MaxUint32, []Ref{{0, 0}}},     // more events than LVs
		} {
			if _, err := b.AddNum(id.Agent, num[id.Agent], bad.seq, bad.count, bad.parents); err == nil {
				t.Fatalf("seed %d: AddNum(%s/%d x%d on %v) accepted", seed, id.Agent, bad.seq, bad.count, bad.parents)
			}
		}
		if b.Len() != a.Len() || b.Entries() != a.Entries() {
			t.Fatalf("seed %d: a refused run changed the graph", seed)
		}
	}
	// Under -1 an agent the graph has not met is numbered by its first run,
	// and only if that run is admitted.
	g := New()
	if _, err := g.AddNum("new", -1, -1, 1, nil); err == nil || g.AgentNum("new") != -1 {
		t.Fatalf("a refused run by a new agent: %v, and the agent numbered %d", err, g.AgentNum("new"))
	}
	if lv, err := g.AddNum("new", -1, 0, 2, nil); err != nil || lv != 0 || g.AgentNum("new") != 0 {
		t.Fatalf("a new agent's first run: %d, %v, numbered %d", lv, err, g.AgentNum("new"))
	}
	if lv, err := g.AddNum("new", -1, 2, 1, []Ref{{1, 0}}); err != nil || lv != 2 || g.Entries() != 1 {
		t.Fatalf("-1 for an agent the graph has met: %d, %v, %d entries", lv, err, g.Entries())
	}
}

// TestParentsSliceSurvivesRegrowth: a parents slice handed out by
// ParentsOf reads the same after the arena has moved, and appending to it
// does not write into the arena.
func TestParentsSliceSurvivesRegrowth(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", 0, 2, nil)
	mustAdd(t, g, "b", 0, 2, nil)
	mustAdd(t, g, "c", 0, 1, []LV{1, 3})
	mustAdd(t, g, "d", 0, 1, []LV{4})
	held := g.ParentsOf(4)
	base := unsafe.SliceData(g.parents)
	for i := 0; i < 500; i++ {
		mustAdd(t, g, "e", i, 1, []LV{LV(i % 4), 5})
	}
	if unsafe.SliceData(g.parents) == base {
		t.Fatal("the arena never moved")
	}
	if !slices.Equal(held, []LV{1, 3}) {
		t.Fatalf("held slice reads %v after regrowth", held)
	}
	_ = append(held, 99)
	if got := g.ParentsOf(5); !slices.Equal(got, []LV{4}) {
		t.Fatalf("appending to a handed-out slice changed entry 'd''s parents to %v", got)
	}
}

// TestGraphLimits: entries count LVs and parents in 32 bits, and seqs
// below MaxSeq, as the file format does. Runs of 2^31-1 events are one
// entry each, so the LV bound is three calls away: past either bound Add
// and Append return an error naming it and leave the graph as it was,
// where an unchecked narrowing would wrap an entry's start or seq.
func TestGraphLimits(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot pass the limit")
	}
	var huge int = math.MaxUint32 - 5
	g := New()
	mustAdd(t, g, "a", 0, MaxSeq, nil)
	mustAdd(t, g, "a2", 0, huge-MaxSeq, []LV{MaxSeq - 1})
	tip := []LV{LV(huge - 1)}
	if _, err := g.Add("b", 0, 6, tip); err == nil {
		t.Fatal("a run ending past 2^32 events was accepted")
	}
	if _, err := g.Append(g.NumberAgent("b"), 6); err == nil {
		t.Fatal("a local run ending past 2^32 events was accepted")
	}
	if _, err := g.Add("b", math.MaxInt-2, 5, tip); err == nil {
		t.Fatal("a run whose seqs overflow was accepted")
	}
	for _, seq := range []int{MaxSeq - 1, MaxSeq, 1 << 40} {
		if _, err := g.Add("b", seq, 2, tip); err == nil || !strings.Contains(err.Error(), "2147483647") {
			t.Fatalf("a run of seqs %d+2: %v, want the seq limit", seq, err)
		}
	}
	if err := CheckSeqs(MaxSeq-1, 1); err != nil {
		t.Fatalf("seq 2^31-2: %v", err)
	}
	if CheckSeqs(MaxSeq, 1) == nil || CheckSeqs(-1, 1) == nil || CheckSeqs(0, MaxSeq+1) == nil {
		t.Fatal("CheckSeqs is off by one")
	}
	if g.Len() != huge || g.Entries() != 2 {
		t.Fatalf("rejected runs left %d events in %d entries", g.Len(), g.Entries())
	}
	lv := mustAdd(t, g, "b", MaxSeq-5, 5, tip)
	if lv != LV(huge) || g.Len() != math.MaxUint32 {
		t.Fatalf("run at %d, %d events", lv, g.Len())
	}
	if id := g.IDOf(LV(g.Len() - 1)); id != (RawID{"b", MaxSeq - 1}) {
		t.Fatalf("last event is %v", id)
	}
	if got, ok := g.LVOf(RawID{"a2", huge - MaxSeq - 1}); !ok || got != LV(huge-1) {
		t.Fatalf("LVOf(a2/%d) = %d, %v", huge-MaxSeq-1, got, ok)
	}
	if got, ok := g.LVOf(RawID{"a", MaxSeq - 1}); !ok || got != LV(MaxSeq-1) {
		t.Fatalf("LVOf(a/%d) = %d, %v", MaxSeq-1, got, ok)
	}
	if before, after := g.Diff(Frontier{3}, Frontier{LV(g.Len() - 1)}); before != nil || len(after) == 0 || !reflect.DeepEqual(g.ParentsOf(lv), tip) {
		t.Fatal("ancestry across the huge entries is wrong")
	}
	if _, err := g.Add("c", 0, 1, nil); err == nil {
		t.Fatal("event 2^32 was accepted")
	}
	// The same guard holds the parents arena to 32-bit offsets; 2^32
	// stored parents are out of a test's reach, the arithmetic is not.
	if room("parents", math.MaxUint32-3, 3) != nil || room("parents", math.MaxUint32-3, 4) == nil || room("parents", math.MaxUint32, 1) == nil {
		t.Fatal("room is off by one")
	}
}

// TestEntryRecordSize: a field added to the record shows here first.
func TestEntryRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Fatalf("an entry record is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(heapEnt{}); got != 16 && strconv.IntSize == 64 {
		t.Fatalf("a pending visit is %d bytes, want 16", got)
	}
}

// TestStoredParentBytes: a stored parent costs Graph.Bytes 8 bytes, its LV
// and its entry in 32 bits each.
func TestStoredParentBytes(t *testing.T) {
	g := New()
	for i := range 8 {
		mustAdd(t, g, fmt.Sprint("r", i), 0, 1, nil)
	}
	mustAdd(t, g, "m", 0, 1, []LV{0, 1, 2, 3, 4, 5, 6, 7})
	before, room := g.Bytes(), cap(g.parents)
	g.Reserve(0, 1000, nil)
	if grew := cap(g.parents) - room; grew < 1000 || g.Bytes()-before != 8*grew {
		t.Fatalf("%d more stored parents of room cost %d bytes, want 8 each", grew, g.Bytes()-before)
	}
}
