package egwalker

import (
	"math/rand"
	"testing"

	"egwalker/internal/causal"
	"egwalker/internal/core"
	"egwalker/internal/listcrdt"
	"egwalker/internal/trace"
)

// TestTextAtRandomVersions holds TextAt at 50 random versions of a
// C1-shaped history to an independent oracle: the reference list CRDT fed
// exactly the events of the version, which a walk over the per-event
// parents picks out.
func TestTextAtRandomVersions(t *testing.T) {
	l, err := trace.Generate(trace.C1.Scale(0.004))
	if err != nil {
		t.Fatal(err)
	}
	text, err := core.ReplayRope(l)
	if err != nil {
		t.Fatal(err)
	}
	d := &Doc{log: l, text: text, agent: "t"}
	ops, err := listcrdt.FromLog(l)
	if err != nil {
		t.Fatal(err)
	}
	g, n := l.Graph, l.Len()
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 50; i++ {
		// One to three heads anywhere in the history, mid-run included;
		// TextAt reduces them to a version.
		var v Version
		var stack []causal.LV
		for k := 1 + rng.Intn(3); k > 0; k-- {
			lv := causal.LV(rng.Intn(n))
			v = append(v, EventID(g.IDOf(lv)))
			stack = append(stack, lv)
		}
		in := make([]bool, n)
		for len(stack) > 0 {
			lv := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !in[lv] {
				in[lv] = true
				stack = append(stack, g.ParentsOf(lv)...)
			}
		}
		oracle := listcrdt.New()
		for lv, op := range ops {
			if in[lv] {
				if _, err := oracle.ApplyRemote(op); err != nil {
					t.Fatalf("version %v: oracle: %v", v, err)
				}
			}
		}
		got, err := d.TextAt(v)
		if err != nil {
			t.Fatalf("TextAt(%v): %v", v, err)
		}
		if got != oracle.Text() {
			t.Fatalf("TextAt(%v) = %d bytes, differs from the oracle's %d", v, len(got), len(oracle.Text()))
		}
	}
}
