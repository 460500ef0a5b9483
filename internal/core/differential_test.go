package core

// Differential tests pinning the span-wise replay pipeline to the
// per-unit reference implementation (unitref.go): on every history, both
// configurations must produce byte-identical documents and emitted
// streams that are equal in canonical maximal-run form. The trace-spec
// and simulator-scenario differentials live in the root package and
// internal/sim (which can import internal/trace); here random histories
// exercise the concurrent paths densely.

import (
	"math/rand"
	"testing"

	"egwalker/internal/causal"
	"egwalker/internal/oplog"
	"egwalker/internal/rope"
)

// checkDifferential runs every replay configuration over l and fails the
// test on any divergence between the span-wise path and the per-unit
// reference.
func checkDifferential(t *testing.T, l *oplog.Log) {
	t.Helper()
	spanStream, err := UnitStream(l, TransformAll)
	if err != nil {
		t.Fatalf("span transform: %v", err)
	}
	unitStream, err := UnitStream(l, TransformAllUnitRef)
	if err != nil {
		t.Fatalf("unit-ref transform: %v", err)
	}
	if at := DiffUnitStreams(spanStream, unitStream); at >= 0 {
		t.Fatalf("expanded streams diverge at unit op %d (lens %d vs %d):\n span: %+v\n unit: %+v",
			at, len(spanStream), len(unitStream), head(spanStream[at:]), head(unitStream[at:]))
	}
	spanDoc := replayVia(t, l, TransformAll)
	for name, cfg := range map[string]func(*oplog.Log, func(causal.LV, XOp)) error{
		"unit-ref":       TransformAllUnitRef,
		"no-opt":         TransformAllNoOpt,
		"no-opt-unitref": TransformAllNoOptUnitRef,
	} {
		if doc := replayVia(t, l, cfg); doc != spanDoc {
			t.Fatalf("%s document diverges:\n span: %q\n  %s: %q", name, spanDoc, name, doc)
		}
	}
}

func replayVia(t *testing.T, l *oplog.Log, transform func(*oplog.Log, func(causal.LV, XOp)) error) string {
	t.Helper()
	r, err := replayRope(l, transform)
	if err != nil {
		t.Fatal(err)
	}
	return r.String()
}

func head(ops []UnitOp) []UnitOp {
	if len(ops) > 12 {
		return ops[:12]
	}
	return ops
}

// TestDifferentialRandom drives the differential over densely concurrent
// random histories.
func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 25; trial++ {
		l := buildRandomLog(t, rng, 300)
		checkDifferential(t, l)
	}
}

// TestDifferentialRuns drives the differential over run-heavy histories:
// long typed runs, forward-delete runs, and backspace runs generated
// concurrently, so spans constantly split and partially retreat.
func TestDifferentialRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	agents := []string{"a", "b", "c"}
	for trial := 0; trial < 25; trial++ {
		l := oplog.New()
		mustInsert(t, l, "seed", nil, 0, "the quick brown fox jumps over the lazy dog")
		heads := []causal.Frontier{l.Frontier()}
		for l.Len() < 400 {
			hi := rng.Intn(len(heads))
			head := heads[hi]
			doc := docAtVersion(t, l, head)
			n := len([]rune(doc))
			agent := agents[rng.Intn(len(agents))]
			runLen := 1 + rng.Intn(12)
			var sp causal.Span
			switch {
			case n == 0 || rng.Intn(3) > 0: // typed run
				pos := rng.Intn(n + 1)
				text := make([]rune, runLen)
				for i := range text {
					text[i] = rune('a' + rng.Intn(26))
				}
				sp = mustInsert(t, l, agent, head, pos, string(text))
			case rng.Intn(2) == 0: // forward delete run
				pos := rng.Intn(n)
				count := 1 + rng.Intn(min(runLen, n-pos))
				sp = mustDelete(t, l, agent, head, pos, count)
			default: // backspace run
				pos := rng.Intn(n)
				count := 1 + rng.Intn(min(runLen, pos+1))
				ops := make([]oplog.Op, count)
				for i := range ops {
					ops[i] = oplog.Op{Kind: oplog.Delete, Pos: pos - i}
				}
				var err error
				sp, err = l.Add(agent, head, ops)
				if err != nil {
					t.Fatal(err)
				}
			}
			heads[hi] = causal.Frontier{sp.End - 1}
			switch rng.Intn(8) {
			case 0:
				if len(heads) < 4 {
					heads = append(heads, heads[hi].Clone())
				}
			case 1:
				if len(heads) > 1 {
					oi := rng.Intn(len(heads))
					if oi != hi {
						merged := l.Graph.FrontierOf(append(heads[hi].Clone(), heads[oi]...))
						heads[hi] = merged
						heads = append(heads[:oi], heads[oi+1:]...)
					}
				}
			}
		}
		checkDifferential(t, l)
	}
}

// TestDifferentialIncremental verifies that span-wise TransformRange in
// random chunk sizes, each planned by a fresh Walker, matches the per-unit
// reference's full replay.
func TestDifferentialIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 8; trial++ {
		l := buildRandomLog(t, rng, 250)
		want := replayVia(t, l, TransformAllUnitRef)

		inc := oplog.New()
		r := rope.New()
		next := causal.LV(0)
		n := causal.LV(l.Len())
		for next < n {
			end := next + causal.LV(1+rng.Intn(25))
			if end > n {
				end = n
			}
			l.EachOp(causal.Span{Start: next, End: end}, func(lv causal.LV, op oplog.Op) bool {
				id := l.Graph.IDOf(lv)
				if _, err := inc.AddRemote(id.Agent, id.Seq, l.Graph.ParentsOf(lv), []oplog.Op{op}); err != nil {
					t.Fatal(err)
				}
				return true
			})
			var applyErr error
			if err := new(Walker).TransformRange(inc, next, func(_ causal.LV, op XOp) {
				if applyErr == nil {
					applyErr = ApplyXOp(r, op)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if applyErr != nil {
				t.Fatal(applyErr)
			}
			next = end
		}
		if got := r.String(); got != want {
			t.Fatalf("trial %d: incremental span %q != unit-ref full %q", trial, got, want)
		}
	}
}
