package causal

import "slices"

// The per-event traversals Diff and the dominators had before they
// learned to step entry by entry: one heap pop, one entry lookup and one
// ParentsOf per event. They are kept as the differential reference for
// the run-length versions — same answers, element for element — next to
// the brute-force closure oracle.

func refDiff(g *Graph, a, b Frontier) (onlyA, onlyB []Span) {
	var h lvHeap
	numNotShared := 0
	pushRaw := func(lv LV, f flag) {
		h = h.push(lv, 0, f)
		if f != flagShared {
			numNotShared++
		}
	}
	for _, lv := range a {
		pushRaw(lv, flagA)
	}
	for _, lv := range b {
		pushRaw(lv, flagB)
	}
	var revA, revB []LV // collected descending
	for len(h) > 0 && numNotShared > 0 {
		lv, f := h[0].lv, h[0].f
		h = h.drop()
		if f != flagShared {
			numNotShared--
		}
		for len(h) > 0 && h[0].lv == lv {
			f2 := h[0].f
			h = h.drop()
			if f2 != flagShared {
				numNotShared--
			}
			f |= f2
		}
		switch f {
		case flagA:
			revA = append(revA, lv)
		case flagB:
			revB = append(revB, lv)
		}
		for _, p := range g.ParentsOf(lv) {
			pushRaw(p, f)
		}
	}
	return spansFromDescending(revA), spansFromDescending(revB)
}

// spansFromDescending run-length encodes a strictly descending LV list
// into ascending disjoint spans.
func spansFromDescending(lvs []LV) []Span {
	if len(lvs) == 0 {
		return nil
	}
	var rev []Span
	start, end := lvs[0], lvs[0]+1
	for _, lv := range lvs[1:] {
		if lv == start-1 {
			start = lv
			continue
		}
		rev = append(rev, Span{start, end})
		start, end = lv, lv+1
	}
	rev = append(rev, Span{start, end})
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

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

func refDominators(g *Graph, lvs []LV) []LV {
	switch len(lvs) {
	case 0:
		return nil
	case 1:
		return []LV{lvs[0]}
	}
	minInput := lvs[0]
	for _, lv := range lvs[1:] {
		if lv < minInput {
			minInput = lv
		}
	}
	var h lvHeap
	inputsLeft := 0
	// flagA marks "is an input", flagB "shadowed by something popped".
	for _, lv := range lvs {
		h = h.push(lv, 0, flagA)
		inputsLeft++
	}
	var out []LV
	for len(h) > 0 && inputsLeft > 0 {
		lv, f := h[0].lv, h[0].f
		h = h.drop()
		if f&flagA != 0 {
			inputsLeft--
		}
		for len(h) > 0 && h[0].lv == lv {
			f2 := h[0].f
			h = h.drop()
			if f2&flagA != 0 {
				inputsLeft--
			}
			f |= f2
		}
		if f == flagA {
			out = append(out, lv)
		}
		if inputsLeft == 0 {
			break
		}
		for _, p := range g.ParentsOf(lv) {
			if p >= minInput {
				h = h.push(p, 0, flagB)
			}
		}
	}
	return sortLVs(out)
}

// refCriticalBoundaries is the whole-graph computation CriticalBoundaries
// used to be: a forward scan for the size of each prefix's frontier and a
// backward scan for the lowest parent of each suffix, event by event.
func refCriticalBoundaries(g *Graph) []bool {
	n := g.Len()
	out := make([]bool, n)
	inFrontier := make([]bool, n)
	sizeOne := make([]bool, n)
	size := 0
	for lv := LV(0); lv < LV(n); lv++ {
		for _, p := range g.ParentsOf(lv) {
			if inFrontier[p] {
				inFrontier[p] = false
				size--
			}
		}
		inFrontier[lv] = true
		size++
		sizeOne[lv] = size == 1
	}
	minAfter := LV(n)
	for lv := LV(n) - 1; lv >= 0; lv-- {
		out[lv] = sizeOne[lv] && minAfter >= lv
		ps := g.ParentsOf(lv)
		if len(ps) == 0 {
			minAfter = -1
		}
		for _, p := range ps {
			minAfter = min(minAfter, p)
		}
	}
	return out
}

// LatestCriticalBefore returns the greatest LV c <= bound such that {c} is
// critical, given the boundaries slice of CriticalBoundaries: the scan the
// replay planner made before CriticalSince answered it from the entries.
// ok is false if no such boundary exists.
func LatestCriticalBefore(boundaries []bool, bound LV) (LV, bool) {
	for i := bound; i >= 0; i-- {
		if boundaries[i] {
			return i, true
		}
	}
	return 0, false
}
