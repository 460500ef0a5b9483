package causal

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// mustAdd is a test helper that fails the test on error.
func mustAdd(t *testing.T, g *Graph, agent string, seq, count int, parents []LV) LV {
	t.Helper()
	lv, err := g.Add(agent, seq, count, parents)
	if err != nil {
		t.Fatalf("Add(%s, %d, %d, %v): %v", agent, seq, count, parents, err)
	}
	return lv
}

// fig4 builds the event graph from Figure 4 of the paper:
//
//	e1←e2, then e3←e4 and e5←e6←e7 concurrently, merged by e8.
//
// LVs: e1..e8 map to 0..7.
func fig4(t *testing.T) *Graph {
	t.Helper()
	g := New()
	mustAdd(t, g, "A", 0, 2, nil)        // e1 (lv0), e2 (lv1)
	mustAdd(t, g, "B", 0, 2, []LV{1})    // e3 (lv2), e4 (lv3)
	mustAdd(t, g, "A", 2, 3, []LV{1})    // e5 (lv4), e6 (lv5), e7 (lv6)
	mustAdd(t, g, "B", 2, 1, []LV{3, 6}) // e8 (lv7)
	return g
}

func TestAddAndLen(t *testing.T) {
	g := New()
	if g.Len() != 0 {
		t.Fatalf("empty graph Len = %d", g.Len())
	}
	lv := mustAdd(t, g, "alice", 0, 3, nil)
	if lv != 0 || g.Len() != 3 {
		t.Fatalf("got lv=%d len=%d, want 0, 3", lv, g.Len())
	}
	// Linear continuation should extend the same entry.
	mustAdd(t, g, "alice", 3, 2, []LV{2})
	if g.Len() != 5 {
		t.Fatalf("len = %d, want 5", g.Len())
	}
	if g.Entries() != 1 {
		t.Fatalf("linear run not merged: %d entries", g.Entries())
	}
}

func TestAddErrors(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", 0, 2, nil)
	if _, err := g.Add("a", 0, 1, nil); err == nil {
		t.Error("duplicate (agent, seq) accepted")
	}
	if _, err := g.Add("b", 0, 0, nil); err == nil {
		t.Error("count 0 accepted")
	}
	if _, err := g.Add("b", 0, 1, []LV{99}); err == nil {
		t.Error("out-of-range parent accepted")
	}
	if _, err := g.Add("b", -1, 1, nil); err == nil {
		t.Error("negative seq accepted")
	}
}

func TestIDMapping(t *testing.T) {
	g := fig4(t)
	cases := []struct {
		lv LV
		id RawID
	}{
		{0, RawID{"A", 0}}, {1, RawID{"A", 1}},
		{2, RawID{"B", 0}}, {3, RawID{"B", 1}},
		{4, RawID{"A", 2}}, {6, RawID{"A", 4}},
		{7, RawID{"B", 2}},
	}
	for _, c := range cases {
		if got := g.IDOf(c.lv); got != c.id {
			t.Errorf("IDOf(%d) = %v, want %v", c.lv, got, c.id)
		}
		if got, ok := g.LVOf(c.id); !ok || got != c.lv {
			t.Errorf("LVOf(%v) = %d, %v, want %d", c.id, got, ok, c.lv)
		}
	}
	if _, ok := g.LVOf(RawID{"C", 0}); ok {
		t.Error("unknown agent resolved")
	}
	if _, ok := g.LVOf(RawID{"A", 99}); ok {
		t.Error("unknown seq resolved")
	}
	if got := g.SeqEnd("A"); got != 5 {
		t.Errorf("SeqEnd(A) = %d, want 5", got)
	}
	if got := g.SeqEnd("nobody"); got != 0 {
		t.Errorf("SeqEnd(nobody) = %d, want 0", got)
	}
}

func TestParentsOf(t *testing.T) {
	g := fig4(t)
	cases := []struct {
		lv   LV
		want []LV
	}{
		{0, nil}, {1, []LV{0}}, {2, []LV{1}}, {3, []LV{2}},
		{4, []LV{1}}, {5, []LV{4}}, {7, []LV{3, 6}},
	}
	for _, c := range cases {
		got := g.ParentsOf(c.lv)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParentsOf(%d) = %v, want %v", c.lv, got, c.want)
		}
	}
}

func TestFrontierTracking(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", 0, 2, nil)
	if f := g.Frontier(); !f.Eq(Frontier{1}) {
		t.Fatalf("frontier = %v, want [1]", f)
	}
	mustAdd(t, g, "b", 0, 1, []LV{1})
	mustAdd(t, g, "c", 0, 1, []LV{1})
	if f := g.Frontier(); !f.Eq(Frontier{2, 3}) {
		t.Fatalf("frontier = %v, want [2 3]", f)
	}
	mustAdd(t, g, "a", 2, 1, []LV{2, 3})
	if f := g.Frontier(); !f.Eq(Frontier{4}) {
		t.Fatalf("frontier = %v, want [4]", f)
	}
}

// TestConcurrentHeadsJoinTheFrontierInLogSteps: k events concurrent on
// one root make k heads, and each finds its place among them by binary
// search — O(k log k) steps in all, where a scan of the frontier per
// event made them k²/2. A child of a middle head and a merge of every head
// then compact the frontier once each.
func TestConcurrentHeadsJoinTheFrontierInLogSteps(t *testing.T) {
	for _, k := range []int{1_000, 32_000} {
		g := New()
		mustAdd(t, g, "root", 0, 1, nil)
		for i := range k {
			mustAdd(t, g, fmt.Sprint("h", i), 0, 1, []LV{0})
		}
		heads := g.Frontier()
		if len(heads) != k || heads[0] != 1 || heads[k-1] != LV(k) {
			t.Fatalf("k=%d: frontier of %d heads from %v", k, len(heads), heads[:min(len(heads), 3)])
		}
		mid := heads[k/2]
		child := mustAdd(t, g, "child", 0, 1, []LV{mid})
		want := append(slices.Delete(slices.Clone(heads), k/2, k/2+1), child)
		if got := g.Frontier(); !got.Eq(want) {
			t.Fatalf("k=%d: after a child of head %d the frontier has %d heads, want %d", k, mid, len(got), len(want))
		}
		merge := mustAdd(t, g, "merge", 0, 1, g.Frontier())
		if got := g.Frontier(); !got.Eq(Frontier{merge}) {
			t.Fatalf("k=%d: after the merge the frontier is %v", k, got[:min(len(got), 3)])
		}
		steps, bound := g.FrontierSteps(), uint64(2*k*bits.Len(uint(k)))
		t.Logf("k=%d heads: %d frontier steps, %.1f a head (bound %d)", k, steps, float64(steps)/float64(k), bound)
		if steps > bound {
			t.Errorf("k=%d heads took %d frontier steps; want at most 2·k·log2(k) = %d", k, steps, bound)
		}
	}
}

func TestDominatorsReducesParents(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", 0, 3, nil)
	// Passing a redundant parent set {0, 2} must reduce to {2}.
	lv := mustAdd(t, g, "b", 0, 1, []LV{0, 2})
	if got := g.ParentsOf(lv); !reflect.DeepEqual(got, []LV{2}) {
		t.Fatalf("parents = %v, want [2]", got)
	}
}

func TestDiffFig4(t *testing.T) {
	g := fig4(t)
	// Moving prepare version from {e4}=lv3 to parents(e5)={e2}=lv1:
	// retreat e4, e3 (lvs 3, 2); advance nothing.
	onlyA, onlyB := g.Diff(Frontier{3}, Frontier{1})
	if !reflect.DeepEqual(onlyA, []Span{{2, 4}}) {
		t.Errorf("onlyA = %v, want [{2 4}]", onlyA)
	}
	if onlyB != nil {
		t.Errorf("onlyB = %v, want nil", onlyB)
	}
	// Moving from {e7}=lv6 to parents(e8)={e4,e7}={3,6}: advance e3, e4.
	onlyA, onlyB = g.Diff(Frontier{6}, Frontier{3, 6})
	if onlyA != nil {
		t.Errorf("onlyA = %v, want nil", onlyA)
	}
	if !reflect.DeepEqual(onlyB, []Span{{2, 4}}) {
		t.Errorf("onlyB = %v, want [{2 4}]", onlyB)
	}
}

func TestDiffIdentical(t *testing.T) {
	g := fig4(t)
	a, b := g.Diff(Frontier{3, 6}, Frontier{3, 6})
	if a != nil || b != nil {
		t.Errorf("Diff(v, v) = %v, %v, want nil, nil", a, b)
	}
}

func TestCriticalBoundariesLinear(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", 0, 5, nil)
	b := g.CriticalBoundaries()
	for i, ok := range b {
		if !ok {
			t.Errorf("boundary %d not critical in linear graph", i)
		}
	}
}

func TestCriticalBoundariesFig4(t *testing.T) {
	g := fig4(t)
	b := g.CriticalBoundaries()
	// e1 (0) and e2 (1) are critical: everything later depends on them.
	// e3..e7 (2..6) are not (concurrent branches cross them).
	// e8 (7) is critical (final single head).
	want := []bool{true, true, false, false, false, false, false, true}
	if !reflect.DeepEqual(b, want) {
		t.Errorf("boundaries = %v, want %v", b, want)
	}
}

func TestCriticalBoundariesRootConcurrency(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", 0, 2, nil)
	mustAdd(t, g, "b", 0, 1, nil) // concurrent root: nothing before it is critical
	b := g.CriticalBoundaries()
	want := []bool{false, false, false}
	if !reflect.DeepEqual(b, want) {
		t.Errorf("boundaries = %v, want %v", b, want)
	}
}

func TestLatestCriticalBefore(t *testing.T) {
	g := fig4(t)
	b := g.CriticalBoundaries()
	if lv, ok := LatestCriticalBefore(b, 6); !ok || lv != 1 {
		t.Errorf("LatestCriticalBefore(6) = %d, %v, want 1, true", lv, ok)
	}
	if lv, ok := LatestCriticalBefore(b, 7); !ok || lv != 7 {
		t.Errorf("LatestCriticalBefore(7) = %d, %v, want 7, true", lv, ok)
	}
	g2 := New()
	mustAdd(t, g2, "a", 0, 1, nil)
	mustAdd(t, g2, "b", 0, 1, nil)
	b2 := g2.CriticalBoundaries()
	if _, ok := LatestCriticalBefore(b2, 1); ok {
		t.Error("expected no critical boundary in fully concurrent graph")
	}
}

// --- randomized property tests -------------------------------------------

// randomGraph builds a random graph with n events and returns it along
// with an explicit parents table for brute-force checking. Runs are up to
// 3, 12 or 40 events long (chosen per graph), and parents are picked
// anywhere, so entries hang off the middle of other entries.
func randomGraph(rng *rand.Rand, n int) (*Graph, [][]LV) {
	b := newGraphBuilder()
	maxRun := []int{3, 12, 40}[rng.Intn(3)]
	for b.g.Len() < n {
		var ps []LV
		if b.g.Len() > 0 {
			switch rng.Intn(4) {
			case 0: // extend current frontier (merge everything)
				ps = append(ps, b.g.Frontier()...)
			case 1, 2: // pick one random existing event
				ps = []LV{LV(rng.Intn(b.g.Len()))}
			case 3: // pick two random events
				ps = []LV{LV(rng.Intn(b.g.Len())), LV(rng.Intn(b.g.Len()))}
			}
		}
		b.add(rng.Intn(4), min(1+rng.Intn(maxRun), n-b.g.Len()), ps)
	}
	return b.g, b.parents
}

// graphBuilder adds runs to a graph and keeps the per-event parents table
// the brute-force oracle walks.
type graphBuilder struct {
	g       *Graph
	parents [][]LV
	seqs    [4]int
}

func newGraphBuilder() *graphBuilder { return &graphBuilder{g: New()} }

func (b *graphBuilder) add(agent, count int, ps []LV) {
	start, err := b.g.Add(string(rune('a'+agent)), b.seqs[agent], count, ps)
	if err != nil {
		panic(err)
	}
	b.seqs[agent] += count
	b.parents = append(b.parents, append([]LV(nil), b.g.ParentsOf(start)...))
	for i := 1; i < count; i++ {
		b.parents = append(b.parents, []LV{start + LV(i) - 1})
	}
}

// closure computes the transitive closure (event set) of a version by
// brute force.
func closure(parents [][]LV, f Frontier) map[LV]bool {
	seen := map[LV]bool{}
	var visit func(lv LV)
	visit = func(lv LV) {
		if seen[lv] {
			return
		}
		seen[lv] = true
		for _, p := range parents[lv] {
			visit(p)
		}
	}
	for _, lv := range f {
		visit(lv)
	}
	return seen
}

func spansToSet(spans []Span) map[LV]bool {
	out := map[LV]bool{}
	for _, s := range spans {
		for lv := s.Start; lv < s.End; lv++ {
			out[lv] = true
		}
	}
	return out
}

func setsEqual(a, b map[LV]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func minus(a, b map[LV]bool) map[LV]bool {
	out := map[LV]bool{}
	for lv := range a {
		if !b[lv] {
			out[lv] = true
		}
	}
	return out
}

func randomFrontier(rng *rand.Rand, g *Graph) Frontier {
	k := 1 + rng.Intn(3)
	lvs := make([]LV, k)
	for i := range lvs {
		lvs[i] = LV(rng.Intn(g.Len()))
	}
	return g.FrontierOf(lvs)
}

// checkSpanShape fails unless spans are non-empty, ascending, disjoint
// and coalesced (no two abut).
func checkSpanShape(t *testing.T, what string, spans []Span) {
	t.Helper()
	for i, sp := range spans {
		if sp.Len() <= 0 {
			t.Fatalf("%s: empty span %v in %v", what, sp, spans)
		}
		if i > 0 && spans[i-1].End >= sp.Start {
			t.Fatalf("%s: spans %v and %v overlap, abut or descend in %v", what, spans[i-1], sp, spans)
		}
	}
}

// checkAlgebra holds Diff and the dominators on versions a and b (and
// the raw set lvs) to the brute-force closure and to the per-event
// reference traversals, in both forms: LVs in (Diff, FrontierOf), and
// Refs in, as a merge hands them (DiffInto, DominatorsInto).
func checkAlgebra(t *testing.T, g *Graph, parents [][]LV, a, b Frontier, lvs []LV) {
	t.Helper()
	ca, cb := closure(parents, a), closure(parents, b)

	onlyA, onlyB := g.Diff(a, b)
	checkSpanShape(t, "Diff onlyA", onlyA)
	checkSpanShape(t, "Diff onlyB", onlyB)
	if !setsEqual(spansToSet(onlyA), minus(ca, cb)) || !setsEqual(spansToSet(onlyB), minus(cb, ca)) {
		t.Fatalf("Diff(%v, %v) = %v, %v: not the closures' difference", a, b, onlyA, onlyB)
	}
	if refA, refB := refDiff(g, a, b); !reflect.DeepEqual(onlyA, refA) || !reflect.DeepEqual(onlyB, refB) {
		t.Fatalf("Diff(%v, %v) = %v, %v; per-event reference %v, %v", a, b, onlyA, onlyB, refA, refB)
	}
	if gotA, gotB := g.DiffInto(g.Refs(a, nil), g.Refs(b, nil), nil, nil); !reflect.DeepEqual(gotA, onlyA) || !reflect.DeepEqual(gotB, onlyB) {
		t.Fatalf("DiffInto(%v, %v) = %v, %v; Diff %v, %v", a, b, gotA, gotB, onlyA, onlyB)
	}

	// Brute force: keep lv unless it is a proper ancestor of another input.
	dom := []LV(g.FrontierOf(lvs))
	want := map[LV]bool{}
	for _, lv := range lvs {
		dominated := false
		for _, other := range lvs {
			if other != lv && closure(parents, Frontier{other})[lv] {
				dominated = true
			}
		}
		if !dominated {
			want[lv] = true
		}
	}
	if !slices.IsSorted(dom) || len(dom) != len(want) || !setsEqual(spansToSet(singletons(dom)), want) {
		t.Fatalf("FrontierOf(%v) = %v, want the set %v ascending", lvs, dom, want)
	}
	if ref := refDominators(g, append([]LV(nil), lvs...)); !slices.Equal(dom, ref) {
		t.Fatalf("FrontierOf(%v) = %v; per-event reference %v", lvs, dom, ref)
	}
	red := g.DominatorsInto(g.Refs(lvs, nil), nil)
	got := make([]LV, len(red))
	for i, r := range red {
		if got[i] = r.LV; !g.holds(r) {
			t.Fatalf("DominatorsInto(%v) = %v: %v is not its entry's", lvs, red, r)
		}
	}
	if !slices.Equal(got, dom) {
		t.Fatalf("DominatorsInto(%v) = %v; FrontierOf %v", lvs, got, dom)
	}
}

func singletons(lvs []LV) []Span {
	out := make([]Span, len(lvs))
	for i, lv := range lvs {
		out[i] = Span{lv, lv + 1}
	}
	return out
}

// algebraOnRandomGraphs runs checkAlgebra on 200 random graphs of
// minEvents to minEvents+spread-1 events.
func algebraOnRandomGraphs(t *testing.T, seed int64, minEvents, spread int) {
	rng := rand.New(rand.NewSource(seed))
	for iter := 0; iter < 200; iter++ {
		g, parents := randomGraph(rng, minEvents+rng.Intn(spread))
		a, b := randomFrontier(rng, g), randomFrontier(rng, g)
		lvs := make([]LV, 1+rng.Intn(4))
		for i := range lvs {
			lvs[i] = LV(rng.Intn(g.Len()))
		}
		checkAlgebra(t, g, parents, a, b, lvs)
	}
}

func TestDiffMatchesBruteForce(t *testing.T)           { algebraOnRandomGraphs(t, 42, 30, 40) }
func TestGraphAlgebraMatchesBruteForce(t *testing.T)   { algebraOnRandomGraphs(t, 7, 20, 30) }
func TestCommonAncestorMatchesBruteForce(t *testing.T) { algebraOnRandomGraphs(t, 99, 20, 30) }
func TestDominatorsMatchBruteForce(t *testing.T)       { algebraOnRandomGraphs(t, 555, 20, 20) }

// TestGraphAlgebraOnLongRuns: Diff and the dominators on graphs whose entries
// are long and whose versions sit in the middle of entries, against the
// closure oracle and the per-event reference, output shape included.
func TestGraphAlgebraOnLongRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 150; iter++ {
		g, parents := randomGraph(rng, 60+rng.Intn(240))
		a, b := randomFrontier(rng, g), randomFrontier(rng, g)
		lvs := make([]LV, 1+rng.Intn(5))
		for i := range lvs {
			lvs[i] = LV(rng.Intn(g.Len()))
		}
		checkAlgebra(t, g, parents, a, b, lvs)
		// A version against itself plus one more head, and against the root.
		checkAlgebra(t, g, parents, a, g.FrontierOf(append(a.Clone(), lvs[0])), a)
		checkAlgebra(t, g, parents, Root, b, nil)
	}
}

// FuzzGraphAlgebra builds a graph and two versions from the input bytes
// and holds the traversals to the same oracle as the test above.
func FuzzGraphAlgebra(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 39, 0, 1, 20, 1, 5, 2, 30, 3, 10, 30, 0, 5, 0, 2, 7, 60, 3, 50})
	f.Add([]byte{1, 1, 0, 2, 1, 1, 0, 3, 1, 1, 0, 0, 1, 0, 9, 9, 4, 4, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		// Leave the last few bytes for the versions.
		b := newGraphBuilder()
		for i+8 < len(data) && b.g.Len() < 600 {
			agent, count := next()%4, 1+next()%40
			var ps []LV
			if n := b.g.Len(); n > 0 {
				switch mode := next() % 4; mode {
				case 0:
					ps = b.g.Frontier()
				default:
					for k := 0; k < mode && k < 2; k++ {
						ps = append(ps, LV((next()<<8|next())%n))
					}
				}
			}
			b.add(agent, count, ps)
		}
		g := b.g
		if g.Len() == 0 {
			return
		}
		pick := func() []LV {
			lvs := make([]LV, 1+next()%3)
			for k := range lvs {
				lvs[k] = LV((next()<<8 | next()) % g.Len())
			}
			return lvs
		}
		la, lb := pick(), pick()
		checkAlgebra(t, g, b.parents, g.FrontierOf(la), g.FrontierOf(lb), append(la, lb...))
		if got, want := g.CriticalBoundaries(), refCriticalBoundaries(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("CriticalBoundaries = %v, per-event reference %v", got, want)
		}
	})
}

// TestDiffCostIsPerEntry: what a traversal costs is counted in entries,
// not events. Two heads on two long entries, first 1 000 then 10 000
// events apart: the allocation count of Diff is small and the same, where
// a per-event walk would grow its heap and its result event by event.
func TestDiffCostIsPerEntry(t *testing.T) {
	allocs := func(n int) float64 {
		g := New()
		mustAdd(t, g, "a", 0, 10, nil)
		mustAdd(t, g, "a", 10, n, []LV{9})
		mustAdd(t, g, "b", 0, n, []LV{9})
		a, b := Frontier{LV(10 + n - 1)}, Frontier{LV(10 + 2*n - 1)}
		onlyA, onlyB := g.Diff(a, b)
		if want := []Span{{10, LV(10 + n)}}; !reflect.DeepEqual(onlyA, want) {
			t.Fatalf("onlyA = %v, want %v", onlyA, want)
		}
		if want := []Span{{LV(10 + n), LV(10 + 2*n)}}; !reflect.DeepEqual(onlyB, want) {
			t.Fatalf("onlyB = %v, want %v", onlyB, want)
		}
		return testing.AllocsPerRun(100, func() {
			g.Diff(a, b)
			if d := g.FrontierOf([]LV{a[0], b[0], 5}); len(d) != 2 {
				t.Fatalf("FrontierOf = %v", d)
			}
		})
	}
	near, far := allocs(1000), allocs(10000)
	// One result slice per side of Diff, one for FrontierOf.
	if near != far || near > 3 {
		t.Fatalf("allocations per run: %v with heads 1 000 events apart, %v at 10 000; want equal and at most 3", near, far)
	}

	// And in entries, not in searches for them: two authors taking turns,
	// each turn hanging on the other's last but three, make a lattice in
	// which a walk between the two heads touches every entry on the way.
	// It searches for the entries of the heads it is given — one lookup
	// each — and hops from entry to entry along the stored links, where
	// every hop used to be a binary search.
	searches := func(turns int) (diff, dom uint64) {
		g := New()
		var tips [2]LV
		mustAdd(t, g, "a", 0, 5, nil)
		tips[0] = 4
		tips[1] = mustAdd(t, g, "b", 0, 5, []LV{2}) + 4
		var history [2][]LV // each author's tips, oldest first
		for i := 0; i < turns; i++ {
			me, other := i%2, 1-i%2
			ps := []LV{tips[me]}
			if h := history[other]; len(h) >= 3 {
				ps = append(ps, h[len(h)-3])
			}
			history[me] = append(history[me], tips[me])
			tips[me] = mustAdd(t, g, string(rune('a'+me)), g.SeqEnd(string(rune('a'+me))), 5, ps) + 4
		}
		if g.Entries() < turns {
			t.Fatalf("%d entries after %d turns", g.Entries(), turns)
		}
		a, b := Frontier{tips[0]}, Frontier{4}
		before := g.Searches()
		onlyA, onlyB := g.Diff(a, b)
		diff = g.Searches() - before
		walked := 0
		for _, sp := range onlyA {
			walked += sp.Len()
		}
		if len(onlyB) != 0 || walked < 5*(turns-3) {
			t.Fatalf("Diff from the tip to the base: %d events, %d spans the other way", walked, len(onlyB))
		}
		before = g.Searches()
		if d := g.FrontierOf([]LV{tips[0], tips[1], 7, 3}); len(d) != 2 {
			t.Fatalf("FrontierOf = %v", d)
		}
		dom = g.Searches() - before
		// Handed the entries, found by number as a merge finds them, the
		// same walks make no search at all.
		ref := func(lv LV) Ref {
			id := g.IDOf(lv)
			r, ok, _ := g.SeqRun(g.AgentNum(id.Agent), id.Seq, 1)
			if !ok || r.LV != lv {
				t.Fatalf("SeqRun(%v) = %v, %v; want %d", id, r, ok, lv)
			}
			return r
		}
		refsA, refsB := []Ref{ref(a[0])}, []Ref{ref(b[0])}
		four := []Ref{ref(tips[0]), ref(tips[1]), ref(7), ref(3)}
		before = g.Searches()
		gotA, gotB := g.DiffInto(refsA, refsB, nil, nil)
		doms := g.DominatorsInto(four, nil)
		if n := g.Searches() - before; n != 0 {
			t.Errorf("%d turns: DiffInto and DominatorsInto handed Refs made %d searches", turns, n)
		}
		if !reflect.DeepEqual(gotA, onlyA) || len(gotB) != 0 || len(doms) != 2 || doms[0] != ref(doms[0].LV) || doms[1] != ref(doms[1].LV) {
			t.Errorf("%d turns: DiffInto = %v %v, Diff %v; DominatorsInto = %v", turns, gotA, gotB, onlyA, doms)
		}
		return diff, dom
	}
	for _, turns := range []int{40, 400} {
		diff, dom := searches(turns)
		if diff != 2 || dom != 4 {
			t.Errorf("%d turns: %d entry searches in Diff of two heads, %d in FrontierOf of four events; want 2 and 4", turns, diff, dom)
		}
	}
}

// TestRefsAreChecked: a Ref whose entry does not hold its LV is refused by
// every walk that takes Refs — an error from AddNum, a panic from the
// queries, as an LV out of range is — and never followed.
func TestRefsAreChecked(t *testing.T) {
	g := fig4(t)
	good, ok := g.RefOf(LV(g.Len() - 1))
	if !ok || good.Ent == 0 {
		t.Fatalf("RefOf(last) = %v, %v", good, ok)
	}
	if _, ok := g.RefOf(LV(g.Len())); ok {
		t.Fatal("RefOf found an event past the end")
	}
	for _, bad := range []Ref{{good.LV, 0}, {good.LV, good.Ent + 1}, {-1, 0}, {LV(g.Len()), good.Ent}} {
		if _, err := g.AddNum("A", 0, g.SeqEnd("A"), 1, []Ref{good, bad}); err == nil {
			t.Errorf("AddNum took parent %v", bad)
		}
		for name, call := range map[string]func(){
			"DiffInto":       func() { g.DiffInto([]Ref{good}, []Ref{bad}, nil, nil) },
			"DominatorsInto": func() { g.DominatorsInto([]Ref{bad, good}, nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s followed %v", name, bad)
					}
				}()
				call()
			}()
		}
	}
}

// TestCriticalSince: the runs CriticalSince reports from any bound are
// CriticalBoundaries from the latest critical version at or before the
// bound onwards, coalesced; the runs CriticalFrom reports are
// CriticalBoundaries from an event onwards, found without looking at the
// entries before it.
func TestCriticalSince(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 200; iter++ {
		g, _ := randomGraph(rng, 20+rng.Intn(200))
		if iter%3 == 0 {
			// A linear tail, so that there are critical runs to find.
			tip := g.Frontier()
			g.Add("z", 0, 1+rng.Intn(30), tip)
		}
		bounds := g.CriticalBoundaries()
		if want := refCriticalBoundaries(g); !reflect.DeepEqual(bounds, want) {
			t.Fatalf("iter %d: CriticalBoundaries = %v, per-event reference %v", iter, bounds, want)
		}
		for bound := LV(-1); bound < LV(g.Len()); bound++ {
			from := LV(0)
			if c, ok := LatestCriticalBefore(bounds, bound); ok && bound >= 0 {
				from = c
			}
			var want []Span
			for lv := from; lv < LV(g.Len()); lv++ {
				if bounds[lv] {
					want = pushDesc(want, lv, lv+1)
					if n := len(want); n > 1 && want[n-2].End == lv {
						want[n-2].End, want = lv+1, want[:n-1]
					}
				}
			}
			var buf [2]Span
			got, _ := g.CriticalSince(bound, buf[:0])
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: CriticalSince(%d) = %v, want %v", iter, bound, got, want)
			}
		}
		// The bounded walk: from any event on, the critical versions are
		// the per-event reference's, the lowest parent is the lowest parent
		// of any event from there on (an event inside an entry hangs on
		// its predecessor, which is at or after from-1), and no entry that
		// ends at or before from is visited.
		for from := LV(0); from <= LV(g.Len()); from++ {
			var want []Span
			for lv := from; lv < LV(g.Len()); lv++ {
				if bounds[lv] {
					if n := len(want); n > 0 && want[n-1].End == lv {
						want[n-1].End = lv + 1
					} else {
						want = append(want, Span{lv, lv + 1})
					}
				}
			}
			wantMin := max(from-1, -1)
			for lv := from; lv < LV(g.Len()); lv++ {
				ps := g.ParentsOf(lv)
				if len(ps) == 0 {
					wantMin = -1
				}
				for _, p := range ps {
					wantMin = min(wantMin, p)
				}
			}
			var buf [2]Span
			got, minParent, visited := g.CriticalFrom(from, buf[:0])
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: CriticalFrom(%d) = %v, want %v", iter, from, got, want)
			}
			if m := min(minParent, max(from-1, -1)); m != wantMin {
				t.Fatalf("iter %d: CriticalFrom(%d) lowest parent %d (%d capped at from-1), want %d", iter, from, minParent, m, wantMin)
			}
			overlapping := 0
			for w := g.EntriesIn(Span{from, LV(g.Len())}); ; overlapping++ {
				if _, _, _, ok := w.NextRefs(nil); !ok {
					break
				}
			}
			if visited > overlapping {
				t.Fatalf("iter %d: CriticalFrom(%d) visited %d entries, only %d reach past it", iter, from, visited, overlapping)
			}
		}
	}
}

func TestCriticalBoundariesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 100; iter++ {
		g, parents := randomGraph(rng, 15+rng.Intn(25))
		got := g.CriticalBoundaries()
		n := g.Len()
		for i := 0; i < n; i++ {
			// Brute force: Events({i}) must be exactly the prefix [0, i]
			// (otherwise some event <= i would be concurrent with i), and
			// every event <= i must be an ancestor of every event > i.
			want := true
			ci := closure(parents, Frontier{LV(i)})
			for k := 0; k <= i; k++ {
				if !ci[LV(k)] {
					want = false
					break
				}
			}
			for j := i + 1; j < n && want; j++ {
				cj := closure(parents, Frontier{LV(j)})
				for k := 0; k <= i; k++ {
					if !cj[LV(k)] {
						want = false
						break
					}
				}
			}
			if got[i] != want {
				t.Fatalf("iter %d: boundary %d = %v, want %v", iter, i, got[i], want)
			}
		}
	}
}

// TestAddDoesNotKeepCallerParents: an entry's stored parents must be the
// graph's own copy — callers reuse one scratch slice across Adds.
func TestAddDoesNotKeepCallerParents(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", 0, 4, nil)
	scratch := []LV{1}
	lv := mustAdd(t, g, "b", 0, 2, scratch)
	scratch[0] = 3
	mustAdd(t, g, "c", 0, 1, scratch)
	if got := g.ParentsOf(lv); !reflect.DeepEqual(got, []LV{1}) {
		t.Fatalf("ParentsOf(b/0) = %v after the caller reused its slice, want [1]", got)
	}
	if got, want := []LV(g.Frontier()), []LV{5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("frontier %v, want %v", got, want)
	}
}

func TestSeqRun(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", 0, 3, nil)     // a/0..2 -> lv 0..2
	mustAdd(t, g, "b", 0, 2, []LV{2}) // lv 3..4
	mustAdd(t, g, "a", 5, 2, []LV{4}) // a/5..6 -> lv 5..6 (a/3..4 missing)
	mustAdd(t, g, "a", 3, 2, []LV{2}) // a/3..4 -> lv 7..8 (abuts both neighbours)
	cases := []struct {
		agent    string
		seq, max int
		lv       LV
		known    bool
		n        int
	}{
		{"a", 0, 10, 0, true, 3},   // stops where the LVs stop being consecutive
		{"a", 1, 1, 1, true, 1},    // clipped by max
		{"a", 3, 10, 7, true, 2},   // the late-arriving middle
		{"a", 5, 10, 5, true, 2},   // up to the agent's end
		{"a", 7, 10, 0, false, 10}, // past the end: unknown as far as asked
		{"b", 1, 4, 4, true, 1},
		{"c", 0, 4, 0, false, 4}, // agent never seen
	}
	for _, c := range cases {
		at, known, n := g.SeqRun(g.AgentNum(c.agent), c.seq, c.max)
		if known != c.known || n != c.n || (known && (at.LV != c.lv || !g.holds(at))) {
			t.Errorf("SeqRun(%s, %d, %d) = (%v, %v, %d), want (%d, %v, %d)", c.agent, c.seq, c.max, at, known, n, c.lv, c.known, c.n)
		}
	}
	if g.AgentNum("c") != -1 {
		t.Errorf("AgentNum(c) = %d for an agent never seen, want -1", g.AgentNum("c"))
	}
	// An unknown stretch ends where a known one begins.
	h := New()
	mustAdd(t, h, "a", 4, 2, nil)
	if _, known, n := h.SeqRun(h.AgentNum("a"), 1, 10); known || n != 3 {
		t.Errorf("SeqRun before a known stretch = (known %v, n %d), want (false, 3)", known, n)
	}
}

// TestEntriesIn: the entry walk on Figure 4, whole and clipped mid-entry
// at both ends, read as wire IDs (NextIDs) and as Refs (NextRefs).
func TestEntriesIn(t *testing.T) {
	g := fig4(t)
	type seen struct {
		span    Span
		id      RawID
		parents []RawID
		last    LV
		refs    []LV
	}
	collect := func(sp Span) []seen {
		var out []seen
		for ids, refs := g.EntriesIn(sp), g.EntriesIn(sp); ; {
			span, id, parents, ok := ids.NextIDs(nil)
			rspan, last, rparents, rok := refs.NextRefs(nil)
			if ok != rok || rspan != span {
				t.Fatalf("EntriesIn(%v): NextIDs gave %v %v, NextRefs %v %v", sp, span, ok, rspan, rok)
			}
			if !ok {
				return out
			}
			s := seen{span: span, id: id, parents: parents, last: last.LV}
			for _, r := range rparents {
				if !g.holds(r) {
					t.Fatalf("EntriesIn(%v): parent %v is not its entry's", sp, r)
				}
				s.refs = append(s.refs, r.LV)
			}
			if !g.holds(last) {
				t.Fatalf("EntriesIn(%v): last %v is not its entry's", sp, last)
			}
			out = append(out, s)
		}
	}
	if got := collect(Span{3, 3}); got != nil {
		t.Errorf("empty span visited %v", got)
	}
	want := []seen{
		{Span{0, 2}, RawID{"A", 0}, nil, 1, nil},
		{Span{2, 4}, RawID{"B", 0}, []RawID{{"A", 1}}, 3, []LV{1}},
		{Span{4, 7}, RawID{"A", 2}, []RawID{{"A", 1}}, 6, []LV{1}},
		{Span{7, 8}, RawID{"B", 2}, []RawID{{"B", 1}, {"A", 4}}, 7, []LV{3, 6}},
	}
	if got := collect(Span{0, LV(g.Len())}); !reflect.DeepEqual(got, want) {
		t.Errorf("full span: %v, want %v", got, want)
	}
	// Clipped at both ends: B's entry from its second event, whose parent
	// is its predecessor in the entry, A's second entry cut after two.
	want = []seen{
		{Span{3, 4}, RawID{"B", 1}, []RawID{{"B", 0}}, 3, []LV{2}},
		{Span{4, 6}, RawID{"A", 2}, []RawID{{"A", 1}}, 5, []LV{1}},
	}
	if got := collect(Span{3, 6}); !reflect.DeepEqual(got, want) {
		t.Errorf("clipped span: %v, want %v", got, want)
	}
}
