package causal

import "slices"

// Critical versions (paper §3.5): a version V is critical in graph G iff
// it partitions G into Events(V) and the rest such that every event in
// Events(V) happened before every event outside it. Critical versions let
// Eg-walker discard its internal state and emit events untransformed.
//
// Because the storage order is a topological order and the graph is
// transitively reduced, the boundary after storage index i is critical iff
//
//  1. the frontier of the prefix [0, i] is exactly {i}, and
//  2. no event j > i has a parent < i.
//
// (1) depends on the prefix alone, so Add records it once, in the entry's
// soleHead bit: the same for every event of the entry. (2)
// is a running minimum over the entries after i. Inside an entry each
// event's parent is its predecessor, so the critical versions of an entry
// are a prefix of it: those not above the lowest parent of any later
// entry. Walking the entries from the last one backwards with that
// minimum yields the critical versions as descending runs, and the walk
// can stop anywhere: finding the latest critical version before an event
// costs the entries after that version, never the history before it.

// criticalRunsDesc calls fn with the run of critical versions at or after
// from inside each entry that has any, from the last entry backwards,
// until fn returns false, the entry holding from has been visited, or no
// earlier version can be critical. It returns the lowest parent of the
// entries it walked that start at or after from (-1 if one of them is a
// root event, Len if there was none) — the versions before from that
// those entries leave critical are the ones not above it — and the number
// of entries it visited.
func (g *Graph) criticalRunsDesc(from LV, fn func(Span) bool) (minAfter LV, visited int) {
	minAfter = g.n // lowest parent of the entries already visited
	for i, entEnd := len(g.entries)-1, g.n; i >= 0 && entEnd > from; i-- {
		e := &g.entries[i]
		visited++
		entStart := LV(e.start)
		start, end := max(entStart, from), min(entEnd, minAfter+1)
		if e.seq&soleHead != 0 && end > start && !fn(Span{start, end}) {
			break
		}
		if entStart < from {
			break // its parents belong to an event before from
		}
		lo, hi := g.parentRange(i)
		if lo == hi {
			return -1, visited // a root event: concurrent with everything before it
		}
		minAfter = min(minAfter, LV(g.parents[lo].lv))
		entEnd = entStart
	}
	return minAfter, visited
}

// CriticalBoundaries returns, for each event index i in storage order,
// whether the version {i} is critical with respect to the whole graph.
// The final event's boundary is critical iff the graph's frontier is a
// single event. The slice is built on each call, in O(#entries) plus the
// n bytes of the result.
func (g *Graph) CriticalBoundaries() []bool {
	out := make([]bool, g.Len())
	g.criticalRunsDesc(0, func(sp Span) bool {
		for lv := sp.Start; lv < sp.End; lv++ {
			out[lv] = true
		}
		return true
	})
	return out
}

// CriticalSince returns the critical versions from the latest one at or
// before bound onwards, as ascending coalesced runs: the first run starts
// at that version. If no version at or before bound is critical, every
// run the graph has is returned (all of them after bound). The cost is
// the entries after the version found, whose number is visited. The result
// is built in buf.
func (g *Graph) CriticalSince(bound LV, buf []Span) (runs []Span, visited int) {
	desc := buf[:0]
	_, visited = g.criticalRunsDesc(0, func(sp Span) bool {
		found := sp.Start <= bound
		if found {
			sp.Start = min(bound, sp.End-1)
		}
		desc = pushDesc(desc, sp.Start, sp.End)
		return !found
	})
	slices.Reverse(desc)
	return desc, visited
}

// CriticalFrom returns the critical versions at or after from, as
// ascending coalesced runs built in buf, and the lowest parent of the
// entries that start at or after from (-1 if one of them is a root event,
// Len if there are none). The cost is the entries from the one holding
// from onwards, whose number is visited. A version that is not critical
// never becomes critical again, and one that is stays so until an event
// arrives with a parent below it: a caller that knew the critical versions
// before from when the graph ended there learns what they are now from
// minParent alone.
func (g *Graph) CriticalFrom(from LV, buf []Span) (runs []Span, minParent LV, visited int) {
	desc := buf[:0]
	minParent, visited = g.criticalRunsDesc(from, func(sp Span) bool {
		desc = pushDesc(desc, sp.Start, sp.End)
		return true
	})
	slices.Reverse(desc)
	return desc, minParent, visited
}
