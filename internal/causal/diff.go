package causal

import (
	"fmt"
	"slices"
)

// This file implements the version-set algebra the Eg-walker tracker
// depends on: Diff (the retreat/advance set computation from §3.2) and
// DominatorsInto (transitive reduction of version sets). Both use a
// bounded max-heap traversal over the DAG: because LVs are assigned in
// topological order, walking LVs in descending order visits descendants
// before ancestors, so traversals can stop as soon as the remaining work
// is known to be shared/irrelevant.

// flag tags a heap entry with which side(s) of a traversal reached it.
type flag uint8

const (
	flagA      flag = 1 << iota // reached from version A
	flagB                       // reached from version B
	flagShared = flagA | flagB
)

// heapEnt is one pending visit of a traversal: walk down from lv, which
// entry ent holds, on behalf of the sides in f.
type heapEnt struct {
	lv  LV
	ent uint32
	f   flag
}

// lvHeap is a max-heap of pending visits. Duplicate LVs are allowed; they
// are merged when popped. The traversals start it on a stack array and
// push and pop return the slice the way append does, so a walk that never
// holds more than a few branches at once (one or two heads on each side)
// does not touch the allocator.
type lvHeap []heapEnt

func (h lvHeap) push(lv LV, ent uint32, f flag) lvHeap {
	h = append(h, heapEnt{lv, ent, f})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].lv >= h[i].lv {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// drop removes the greatest entry, h[0].
func (h lvHeap) drop() lvHeap {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h[l].lv > h[big].lv {
			big = l
		}
		if r < n && h[r].lv > h[big].lv {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	return h
}

// Every traversal below steps entry by entry, not event by event: it
// pops the highest pending LV and — since the events of an entry form a
// chain — consumes every other pending LV that falls inside the same
// entry on the way down to the entry's first event. Only that first
// event's stored parents are pushed, each with the index of its own entry,
// which the graph stored beside it. A walk therefore costs one heap
// operation per entry it touches, however many events the entries cover,
// and no search: the versions it starts from come as Refs, and the forms
// that take LVs (Diff, FrontierOf) search once for each head (Refs).

// pushHeads adds a visit on behalf of f for each of heads.
func (g *Graph) pushHeads(h lvHeap, heads []Ref, f flag) lvHeap {
	for _, r := range heads {
		if !g.holds(r) {
			panic(fmt.Sprintf("causal: LV %d is not in entry %d", r.LV, r.Ent))
		}
		h = h.push(r.LV, r.Ent, f)
	}
	return h
}

// pushParents adds a visit on behalf of f for each stored parent of
// entry i and returns how many there were.
func (g *Graph) pushParents(h lvHeap, i uint32, f flag) (lvHeap, int) {
	lo, hi := g.parentRange(int(i))
	for k := lo; k < hi; k++ {
		h = h.push(LV(g.parents[k].lv), g.parents[k].ent, f)
	}
	return h, hi - lo
}

// pushDesc adds [start, end), if not empty, to spans, which are kept
// descending; a span that abuts the previous one extends it.
func pushDesc(spans []Span, start, end LV) []Span {
	if start >= end {
		return spans
	}
	if n := len(spans); n > 0 && spans[n-1].Start == end {
		spans[n-1].Start = start
		return spans
	}
	return append(spans, Span{start, end})
}

// ascending returns a fresh copy of the descending spans in ascending
// order, nil if there are none.
func ascending(desc []Span) []Span {
	if len(desc) == 0 {
		return nil
	}
	out := make([]Span, len(desc))
	for i, sp := range desc {
		out[len(desc)-1-i] = sp
	}
	return out
}

// Diff computes the symmetric difference of the event sets (transitive
// closures) of versions a and b: onlyA are events in Events(a) but not
// Events(b); onlyB the reverse. Both results are returned as disjoint,
// coalesced spans sorted ascending.
//
// This is the computation the Eg-walker walk performs before applying
// each event: events in onlyA are retreated and events in onlyB advanced
// when moving the prepare version from a to b (§3.2).
func (g *Graph) Diff(a, b Frontier) (onlyA, onlyB []Span) {
	var refA, refB [4]Ref
	var bufA, bufB [4]Span
	descA, descB := g.diffDesc(g.Refs(a, refA[:0]), g.Refs(b, refB[:0]), bufA[:0], bufB[:0])
	return ascending(descA), ascending(descB)
}

// DiffInto is Diff for a caller that holds the heads of both versions as
// Refs, and so costs no search, with the results built in bufA and bufB,
// which are overwritten from their start and grown as append grows them:
// a caller that diffs in a loop and is done with one result before it
// asks for the next hands the same two buffers back each time.
func (g *Graph) DiffInto(a, b []Ref, bufA, bufB []Span) (onlyA, onlyB []Span) {
	onlyA, onlyB = g.diffDesc(a, b, bufA, bufB)
	slices.Reverse(onlyA)
	slices.Reverse(onlyB)
	return onlyA, onlyB
}

// diffDesc is the walk behind Diff: the two results descending, built in
// bufA and bufB.
func (g *Graph) diffDesc(a, b []Ref, bufA, bufB []Span) (descA, descB []Span) {
	var hbuf [8]heapEnt
	h := g.pushHeads(g.pushHeads(hbuf[:0], a, flagA), b, flagB)
	// The walk ends when everything still pending was reached from both
	// sides: all that remains is shared history.
	numNotShared := len(a) + len(b)
	// desc[flagA] and desc[flagB] collect the two results, descending.
	desc := [flagShared][]Span{flagA: bufA[:0], flagB: bufB[:0]}
	for numNotShared > 0 {
		lv, ent, f := h[0].lv, h[0].ent, h[0].f
		h = h.drop()
		if f != flagShared {
			numNotShared--
		}
		start := LV(g.entries[ent].start)
		// [.., end) is the stretch of the entry reached with the sides in f
		// alone; a pending LV inside the entry that brings the other side
		// closes it, and what lies below is shared.
		end := lv + 1
		for len(h) > 0 && h[0].lv >= start {
			lv2, f2 := h[0].lv, h[0].f
			h = h.drop()
			if f2 != flagShared {
				numNotShared--
			}
			if f != flagShared && f2 != f {
				desc[f] = pushDesc(desc[f], lv2+1, end)
				f = flagShared
			}
		}
		var pushed int
		if h, pushed = g.pushParents(h, ent, f); f != flagShared {
			desc[f] = pushDesc(desc[f], start, end)
			numNotShared += pushed
		}
	}
	return desc[flagA], desc[flagB]
}

// DominatorsInto reduces a set of events, held as Refs, to its minimal
// dominating subset: any event that is an ancestor of another element is
// dropped, as are duplicates. The result is sorted ascending and built in
// buf, which is overwritten from its start, grown as append grows it, and
// must not overlap refs: a caller that only reads the result, or copies
// it, keeps buf on its stack. FrontierOf is the form that takes LVs.
func (g *Graph) DominatorsInto(refs, buf []Ref) []Ref {
	out := buf[:0] // collected descending
	if len(refs) < 2 {
		return append(out, refs...)
	}
	minInput := refs[0].LV
	for _, r := range refs[1:] {
		minInput = min(minInput, r.LV)
	}
	// flagA marks "is an input", flagB marks "reached as an ancestor of
	// something already popped" (i.e. shadowed).
	var hbuf [8]heapEnt
	h := g.pushHeads(hbuf[:0], refs, flagA)
	inputsLeft := len(refs)
	for inputsLeft > 0 {
		lv, ent, f := h[0].lv, h[0].ent, h[0].f
		h = h.drop()
		if f&flagA != 0 {
			inputsLeft--
		}
		// Everything else pending inside the entry is lv again or one of
		// its ancestors: a duplicate adds its flags, an ancestor is
		// shadowed.
		for start := LV(g.entries[ent].start); len(h) > 0 && h[0].lv >= start; {
			lv2, f2 := h[0].lv, h[0].f
			h = h.drop()
			if f2&flagA != 0 {
				inputsLeft--
			}
			if lv2 == lv {
				f |= f2
			}
		}
		if f == flagA { // input, not shadowed by any descendant
			out = append(out, Ref{lv, ent})
		}
		if inputsLeft == 0 {
			break
		}
		lo, hi := g.parentRange(int(ent))
		for k := lo; k < hi; k++ {
			if p := g.parents[k]; LV(p.lv) >= minInput {
				h = h.push(LV(p.lv), p.ent, flagB)
			}
		}
	}
	slices.Reverse(out)
	return out
}
