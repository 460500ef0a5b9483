package causal

import "slices"

// Frontier is a version of the event graph: the minimal set of LVs that
// dominate every event in the version (paper §2.3). A frontier is kept
// sorted ascending and contains no event that is an ancestor of another.
// The empty frontier is the root version (no events).
type Frontier []LV

// Root is the version of the empty event graph.
var Root = Frontier{}

// Clone returns a copy of f.
func (f Frontier) Clone() Frontier { return append(Frontier(nil), f...) }

// IsRoot reports whether f is the root (empty) version.
func (f Frontier) IsRoot() bool { return len(f) == 0 }

// Eq reports whether two frontiers denote the same version.
func (f Frontier) Eq(o Frontier) bool {
	if len(f) != len(o) {
		return false
	}
	for i := range f {
		if f[i] != o[i] {
			return false
		}
	}
	return true
}

// Contains reports whether lv is a member of the frontier set itself
// (not whether it is in the version's event set; see Graph.VersionContains).
func (f Frontier) Contains(lv LV) bool { return containsLV(f, lv) }

// sortLVs sorts ascending in place and removes duplicates.
func sortLVs(s []LV) []LV {
	slices.Sort(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Advance returns the version reached from f by applying the events in
// span (in order). The events' parents must all be within f's event set or
// earlier events of the span; this is not rechecked.
func (g *Graph) Advance(f Frontier, span Span) Frontier {
	out := f.Clone()
	for lv := span.Start; lv < span.End; {
		run := g.EntrySpanAt(lv)
		if run.End > span.End {
			run.End = span.End
		}
		parents := g.ParentsOf(lv)
		next := out[:0]
		for _, x := range out {
			if !containsLV(parents, x) {
				next = append(next, x)
			}
		}
		out = append(next, run.End-1)
		out = Frontier(sortLVs(out))
		lv = run.End
	}
	return out
}

// FrontierOf computes the frontier (dominator set) of an arbitrary set of
// events given as the union of the version closures of lvs. Equivalent to
// Dominators but exported with frontier semantics.
func (g *Graph) FrontierOf(lvs []LV) Frontier {
	return Frontier(g.Dominators(lvs))
}
