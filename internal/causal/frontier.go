package causal

// Frontier is a version of the event graph: the minimal set of LVs that
// dominate every event in the version (paper §2.3). A frontier is kept
// sorted ascending and contains no event that is an ancestor of another.
// The empty frontier is the root version (no events).
type Frontier []LV

// Root is the version of the empty event graph.
var Root = Frontier{}

// Clone returns a copy of f.
func (f Frontier) Clone() Frontier { return append(Frontier(nil), f...) }

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

// FrontierOf returns the frontier of the union of the versions lvs name:
// lvs reduced to its dominators (DominatorsInto), ascending, with one
// search for each. FrontierOf(nil) is nil.
func (g *Graph) FrontierOf(lvs []LV) Frontier {
	if len(lvs) == 0 {
		return nil
	}
	var in, doms [4]Ref
	red := g.DominatorsInto(g.Refs(lvs, in[:0]), doms[:0])
	out := make(Frontier, len(red))
	for i, r := range red {
		out[i] = r.LV
	}
	return out
}
