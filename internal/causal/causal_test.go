package causal

import (
	"math/rand"
	"reflect"
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
	if len(g.entries) != 1 {
		t.Fatalf("linear run not merged: %d entries", len(g.entries))
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

func TestVersionContains(t *testing.T) {
	g := fig4(t)
	cases := []struct {
		f      Frontier
		target LV
		want   bool
	}{
		{Frontier{7}, 0, true},
		{Frontier{7}, 6, true},
		{Frontier{3}, 4, false},
		{Frontier{3}, 1, true},
		{Frontier{6}, 2, false},
		{Frontier{3, 6}, 2, true},
		{Frontier{}, 0, false},
	}
	for _, c := range cases {
		if got := g.VersionContains(c.f, c.target); got != c.want {
			t.Errorf("VersionContains(%v, %d) = %v, want %v", c.f, c.target, got, c.want)
		}
	}
}

func TestConcurrency(t *testing.T) {
	g := fig4(t)
	if !g.Concurrent(3, 4) {
		t.Error("e4 and e5 should be concurrent")
	}
	if g.Concurrent(1, 7) {
		t.Error("e2 and e8 should not be concurrent")
	}
	if !g.HappenedBefore(1, 7) {
		t.Error("e2 → e8 expected")
	}
	if g.HappenedBefore(7, 1) {
		t.Error("e8 → e2 unexpected")
	}
}

func TestCommonAncestorVersion(t *testing.T) {
	g := fig4(t)
	got := g.CommonAncestorVersion(Frontier{3}, Frontier{6})
	if !got.Eq(Frontier{1}) {
		t.Errorf("common ancestor of {3},{6} = %v, want {1}", got)
	}
	got = g.CommonAncestorVersion(Frontier{7}, Frontier{6})
	if !got.Eq(Frontier{6}) {
		t.Errorf("common ancestor of {7},{6} = %v, want {6}", got)
	}
	got = g.CommonAncestorVersion(Frontier{0}, Frontier{2})
	if !got.Eq(Frontier{0}) {
		t.Errorf("common ancestor of {0},{2} = %v, want {0}", got)
	}
}

func TestAdvanceFrontier(t *testing.T) {
	g := fig4(t)
	f := g.Advance(Frontier{}, Span{0, 2})
	if !f.Eq(Frontier{1}) {
		t.Fatalf("advance to %v, want {1}", f)
	}
	f = g.Advance(f, Span{2, 4})
	if !f.Eq(Frontier{3}) {
		t.Fatalf("advance to %v, want {3}", f)
	}
	f = g.Advance(f, Span{4, 7})
	if !f.Eq(Frontier{3, 6}) {
		t.Fatalf("advance to %v, want {3 6}", f)
	}
	f = g.Advance(f, Span{7, 8})
	if !f.Eq(Frontier{7}) {
		t.Fatalf("advance to %v, want {7}", f)
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
	if cv := g.CriticalVersions(); !reflect.DeepEqual(cv, []LV{0, 1, 7}) {
		t.Errorf("critical versions = %v", cv)
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
// with an explicit parents table for brute-force checking.
func randomGraph(rng *rand.Rand, n int) (*Graph, [][]LV) {
	g := New()
	parents := make([][]LV, 0, n)
	agents := []string{"a", "b", "c", "d"}
	seqs := map[string]int{}
	for g.Len() < n {
		agent := agents[rng.Intn(len(agents))]
		count := 1 + rng.Intn(3)
		if g.Len()+count > n {
			count = n - g.Len()
		}
		var ps []LV
		if g.Len() > 0 {
			switch rng.Intn(4) {
			case 0: // extend current frontier (merge everything)
				ps = append(ps, g.Frontier()...)
			case 1, 2: // pick one random existing event
				ps = []LV{LV(rng.Intn(g.Len()))}
			case 3: // pick two random events
				ps = []LV{LV(rng.Intn(g.Len())), LV(rng.Intn(g.Len()))}
			}
		}
		start, err := g.Add(agent, seqs[agent], count, ps)
		if err != nil {
			panic(err)
		}
		seqs[agent] += count
		parents = append(parents, append([]LV(nil), g.ParentsOf(start)...))
		for i := 1; i < count; i++ {
			parents = append(parents, []LV{start + LV(i) - 1})
		}
	}
	return g, parents
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

func randomFrontier(rng *rand.Rand, g *Graph) Frontier {
	k := 1 + rng.Intn(3)
	lvs := make([]LV, k)
	for i := range lvs {
		lvs[i] = LV(rng.Intn(g.Len()))
	}
	return Frontier(g.Dominators(lvs))
}

func TestDiffMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		g, parents := randomGraph(rng, 30+rng.Intn(40))
		a := randomFrontier(rng, g)
		b := randomFrontier(rng, g)
		onlyA, onlyB := g.Diff(a, b)
		ca, cb := closure(parents, a), closure(parents, b)
		wantA, wantB := map[LV]bool{}, map[LV]bool{}
		for lv := range ca {
			if !cb[lv] {
				wantA[lv] = true
			}
		}
		for lv := range cb {
			if !ca[lv] {
				wantB[lv] = true
			}
		}
		if !setsEqual(spansToSet(onlyA), wantA) {
			t.Fatalf("iter %d: Diff onlyA mismatch: a=%v b=%v got %v", iter, a, b, onlyA)
		}
		if !setsEqual(spansToSet(onlyB), wantB) {
			t.Fatalf("iter %d: Diff onlyB mismatch: a=%v b=%v got %v", iter, a, b, onlyB)
		}
	}
}

func TestVersionContainsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		g, parents := randomGraph(rng, 20+rng.Intn(30))
		f := randomFrontier(rng, g)
		c := closure(parents, f)
		for lv := LV(0); lv < LV(g.Len()); lv++ {
			if got := g.VersionContains(f, lv); got != c[lv] {
				t.Fatalf("iter %d: VersionContains(%v, %d) = %v, want %v", iter, f, lv, got, c[lv])
			}
		}
	}
}

func TestCommonAncestorMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		g, parents := randomGraph(rng, 20+rng.Intn(30))
		a := randomFrontier(rng, g)
		b := randomFrontier(rng, g)
		got := g.CommonAncestorVersion(a, b)
		ca, cb := closure(parents, a), closure(parents, b)
		want := map[LV]bool{}
		for lv := range ca {
			if cb[lv] {
				want[lv] = true
			}
		}
		if !setsEqual(closure(parents, got), want) {
			t.Fatalf("iter %d: common ancestor %v: closure mismatch (a=%v b=%v)", iter, got, a, b)
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

func TestDominatorsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for iter := 0; iter < 200; iter++ {
		g, parents := randomGraph(rng, 20+rng.Intn(20))
		k := 1 + rng.Intn(4)
		lvs := make([]LV, k)
		for i := range lvs {
			lvs[i] = LV(rng.Intn(g.Len()))
		}
		got := g.Dominators(lvs)
		// Brute force: keep lv unless it is an ancestor of another input.
		want := map[LV]bool{}
		for _, lv := range lvs {
			dominated := false
			for _, other := range lvs {
				if other == lv {
					continue
				}
				if closure(parents, Frontier{other})[lv] && !closure(parents, Frontier{lv})[other] {
					dominated = true
				}
				// equal LVs dedupe; ancestor relation is antisymmetric here
			}
			if !dominated {
				want[lv] = true
			}
		}
		gotSet := map[LV]bool{}
		for _, lv := range got {
			gotSet[lv] = true
		}
		if !setsEqual(gotSet, want) {
			t.Fatalf("iter %d: Dominators(%v) = %v, want %v", iter, lvs, got, want)
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
		lv, known, n := g.SeqRun(c.agent, c.seq, c.max)
		if known != c.known || n != c.n || (known && lv != c.lv) {
			t.Errorf("SeqRun(%s, %d, %d) = (%d, %v, %d), want (%d, %v, %d)", c.agent, c.seq, c.max, lv, known, n, c.lv, c.known, c.n)
		}
	}
	// An unknown stretch ends where a known one begins.
	h := New()
	mustAdd(t, h, "a", 4, 2, nil)
	if _, known, n := h.SeqRun("a", 1, 10); known || n != 3 {
		t.Errorf("SeqRun before a known stretch = (known %v, n %d), want (false, 3)", known, n)
	}
}

func TestEachEntryIn(t *testing.T) {
	g := fig4(t)
	type seen struct {
		span    Span
		agent   string
		seq     int
		parents []LV
	}
	collect := func(sp Span) []seen {
		var out []seen
		g.EachEntryIn(sp, func(span Span, agent string, seqStart int, parents []LV) bool {
			out = append(out, seen{span, agent, seqStart, append([]LV(nil), parents...)})
			return true
		})
		return out
	}
	if got := collect(Span{3, 3}); got != nil {
		t.Errorf("empty span visited %v", got)
	}
	// Whole graph: exactly EachEntry.
	var all []seen
	g.EachEntry(func(span Span, agent string, seqStart int, parents []LV) bool {
		all = append(all, seen{span, agent, seqStart, append([]LV(nil), parents...)})
		return true
	})
	if got := collect(Span{0, LV(g.Len())}); !reflect.DeepEqual(got, all) {
		t.Errorf("full span: %v, want %v", got, all)
	}
	// Clipped at both ends: B's entry from its second event, A's second
	// entry cut after two.
	want := []seen{
		{Span{3, 4}, "B", 1, []LV{2}},
		{Span{4, 6}, "A", 2, []LV{1}},
	}
	if got := collect(Span{3, 6}); !reflect.DeepEqual(got, want) {
		t.Errorf("clipped span: %v, want %v", got, want)
	}
}
