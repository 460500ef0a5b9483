package causal

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests over randomly generated graphs (testing/quick drives
// the seeds; graph construction reuses the randomized generator).

func quickGraph(seed int64, n int) (*Graph, [][]LV) {
	rng := rand.New(rand.NewSource(seed))
	return randomGraph(rng, n)
}

// Diff(v, v) must always be empty.
func TestQuickDiffReflexive(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		g, _ := quickGraph(seed, 25)
		rng := rand.New(rand.NewSource(int64(pick)))
		v := randomFrontier(rng, g)
		a, b := g.Diff(v, v)
		return a == nil && b == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Diff is antisymmetric: swapping the arguments swaps the outputs.
func TestQuickDiffAntisymmetric(t *testing.T) {
	f := func(seed int64, p1, p2 uint8) bool {
		g, _ := quickGraph(seed, 25)
		rng := rand.New(rand.NewSource(int64(p1)<<8 | int64(p2)))
		v1 := randomFrontier(rng, g)
		v2 := randomFrontier(rng, g)
		a1, b1 := g.Diff(v1, v2)
		b2, a2 := g.Diff(v2, v1)
		return setsEqual(spansToSet(a1), spansToSet(a2)) &&
			setsEqual(spansToSet(b1), spansToSet(b2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// FrontierOf is idempotent.
func TestQuickDominatorsIdempotent(t *testing.T) {
	f := func(seed int64, picks []uint8) bool {
		g, _ := quickGraph(seed, 30)
		if len(picks) == 0 {
			picks = []uint8{0}
		}
		lvs := make([]LV, 0, len(picks))
		for _, p := range picks {
			lvs = append(lvs, LV(int(p)%g.Len()))
		}
		once := g.FrontierOf(lvs)
		twice := g.FrontierOf(once)
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Every element of a dominator set is concurrent with every other: neither
// is in the other's closure.
func TestQuickDominatorsPairwiseConcurrent(t *testing.T) {
	f := func(seed int64, picks []uint8) bool {
		g, parents := quickGraph(seed, 30)
		if len(picks) == 0 {
			return true
		}
		lvs := make([]LV, 0, len(picks))
		for _, p := range picks {
			lvs = append(lvs, LV(int(p)%g.Len()))
		}
		dom := g.FrontierOf(lvs)
		for i := range dom {
			for j := range dom {
				if i != j && closure(parents, Frontier{dom[j]})[dom[i]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Critical boundaries never increase when concurrency is added: adding
// a root-concurrent event destroys all criticality before it.
func TestCriticalBoundaryInvalidation(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", 0, 10, nil)
	critical := func() (n int) {
		for _, ok := range g.CriticalBoundaries() {
			if ok {
				n++
			}
		}
		return n
	}
	if n := critical(); n != 10 {
		t.Fatalf("linear graph critical count %d", n)
	}
	// An event concurrent with everything (root parent-less event).
	mustAdd(t, g, "z", 0, 1, nil)
	if n := critical(); n != 0 {
		t.Fatalf("concurrent root left %d critical versions", n)
	}
}
