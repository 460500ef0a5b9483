package causal

import "testing"

// BenchmarkGraphDiff times the retreat/advance set computation of §3.2 on
// the two shapes a merge meets: many short interleaved runs, and two long
// branches.
func BenchmarkGraphDiff(b *testing.B) {
	b.Run("interleaved", func(b *testing.B) {
		// Two authors typing at once in runs of 3, each building on their
		// own last run: 400 short entries, alternating in storage order,
		// above a shared base.
		g := New()
		base, _ := g.Add("base", 0, 100, nil)
		heads := [2]LV{base + 99, base + 99}
		for i := 0; i < 400; i++ {
			lv, err := g.Add([]string{"x", "y"}[i%2], 3*(i/2), 3, []LV{heads[i%2]})
			if err != nil {
				b.Fatal(err)
			}
			heads[i%2] = lv + 2
		}
		benchDiff(b, g, Frontier{heads[0]}, Frontier{heads[1]}, 600)
	})
	b.Run("two-branch-1k", func(b *testing.B) {
		g := New()
		g.Add("base", 0, 100, nil)
		x, _ := g.Add("x", 0, 1000, []LV{99})
		y, _ := g.Add("y", 0, 1000, []LV{99})
		benchDiff(b, g, Frontier{x + 999}, Frontier{y + 999}, 1000)
	})
}

func benchDiff(b *testing.B, g *Graph, x, y Frontier, each int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		onlyX, onlyY := g.Diff(x, y)
		if i == 0 && (spanEvents(onlyX) != each || spanEvents(onlyY) != each) {
			b.Fatalf("Diff covers %d and %d events, want %d each", spanEvents(onlyX), spanEvents(onlyY), each)
		}
	}
}

func spanEvents(spans []Span) (n int) {
	for _, sp := range spans {
		n += sp.Len()
	}
	return n
}
