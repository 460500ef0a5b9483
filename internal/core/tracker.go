// Package core implements the Eg-walker algorithm (paper §3): replaying
// an event graph of text operations through a transient CRDT-like
// internal state, emitting transformed index-based operations that can be
// applied in storage order to reproduce the document.
//
// The Tracker is the internal state from §3.2–§3.4: it simultaneously
// captures the document at the *prepare* version (the version an event
// was generated in) and the *effect* version (all events applied so far).
// It is run-length encoded end-to-end (§3.8): a run of consecutive
// insertions (or a forward/backward delete run over adjacent units) is
// applied, retreated, advanced, and emitted as a single span operation.
// The per-unit reference implementation lives in unitref.go; the replay
// planner in replay.go drives trackers over sections of the graph
// between critical versions (§3.5–§3.6).
package core

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"

	"egwalker/internal/causal"
	"egwalker/internal/itemtree"
	"egwalker/internal/oplog"
	"egwalker/internal/utf8x"
)

// XOp is a transformed span operation: a run of insertions or deletions
// whose index is valid in the effect version (the document produced by
// all previously emitted operations). An insert places its N characters
// at [Pos, Pos+N); a delete removes the N units at [Pos, Pos+N). Runs of
// deletions targeting units already deleted by a concurrent operation
// are dropped (not emitted) rather than emitted as no-ops.
type XOp struct {
	Kind oplog.Kind
	Pos  int
	N    int    // units affected; the characters of an insert
	Text []byte // an insert's characters as UTF-8: a slice of the log's arena
	// Content holds them as runes too (TransformAll and its variants), in
	// a buffer that is the callee's until emit returns.
	Content []rune
	// Back marks a delete span derived from a backspace run: the span's
	// events deleted the range top-down (positions Pos+N-1 down to Pos)
	// rather than bottom-up (N deletes at Pos). The applied effect is
	// identical — remove [Pos, Pos+N) — but the flag keeps the per-unit
	// expansion exact (see EachUnit).
	Back bool
}

// infinitePlaceholder stands for the unknown document length at a replay
// base version (the paper's [0, ∞] placeholder). Valid operations never
// reference indexes at or beyond the real document length, so the excess
// units are never touched.
const infinitePlaceholder = 1 << 40

// delRun is one entry of the run-length encoded delete-target index (the
// paper's second B-tree): the delete event at lvs.Start+k deleted the
// unit with ID target + k*step. step folds together the run's document
// direction (forward or backspace) and the ID direction of the targeted
// run (real-run unit IDs ascend in document order, placeholder unit IDs
// descend).
type delRun struct {
	lvs    causal.Span
	target itemtree.ID
	step   int8
}

// moveRun is a scratch record for span-wise retreat/advance.
type moveRun struct {
	lvs  causal.Span
	kind oplog.Kind
}

// Tracker is Eg-walker's internal state, seeded at a base version.
// All events applied to it must be at or after the base version (in the
// intended use the base is a critical version, so this holds for every
// event after it in storage order).
type Tracker struct {
	log  *oplog.Log
	tree *itemtree.Tree
	// delRuns records, run-length encoded and sorted by lvs.Start, the
	// unit each applied delete event removed. Applies happen in ascending
	// LV order, so the index grows by appends (often merging into the
	// last entry).
	delRuns []delRun
	// cur is the prepare version, its heads with their graph entries. Its
	// backing array is reused across moves to keep the hot loop
	// allocation-free.
	cur []causal.Ref
	// parents is scratch for the parents of the entry being applied; runBuf
	// for shiftSpan's run collection.
	parents []causal.Ref
	runBuf  []moveRun
	// diffA and diffB are scratch for moveTo's two diff results.
	diffA, diffB []causal.Span
	// at is where ApplyRange's walk of the log's runs stopped: the next
	// entry's runs are found there without a search. moved is where the
	// last retreat or advance stopped: the next one is a few runs away.
	at, moved oplog.Cursor
	// end is where the last ApplyRange stopped, -1 after a reset. seam is
	// the start of the current ApplyRange when it is end and falls inside
	// a graph entry, -1 otherwise: the one place where this call may have
	// to go on with an insert run the last one applied the head of.
	end, seam causal.LV
	// onIDOp, if set, is called for each applied event with its ID-space
	// form: the CRDT origins for inserts, or the deleted unit for
	// deletes. Used to convert position-based event logs into ID-based
	// CRDT operations (§2.5).
	onIDOp func(lv causal.LV, op oplog.Op, originLeft, originRight, target itemtree.ID)
}

// NewTracker returns a tracker whose prepare and effect versions start at
// base. baseUnits is the document length at the base version, or -1 if
// unknown (an "infinite" placeholder is used; see §3.6).
func NewTracker(l *oplog.Log, base causal.Frontier, baseUnits int) *Tracker {
	t := &Tracker{log: l, tree: itemtree.New()}
	t.reset(base, baseUnits)
	return t
}

// reset discards the internal state and seeds the tracker at base, as
// NewTracker does, keeping the storage of the tree and of the indexes: a
// replay that crosses many critical versions reuses one tracker for all
// of its sections.
func (t *Tracker) reset(base causal.Frontier, baseUnits int) {
	t.clear()
	t.cur = t.log.Graph.Refs(base, t.cur)
	t.end = -1
	if baseUnits < 0 {
		baseUnits = infinitePlaceholder
	}
	t.tree.InitPlaceholder(baseUnits)
}

// clear lets the internal state go, keeping the tree's one leaf and ID
// index and the other arrays, emptied, and reports whether what it keeps
// is within maxKeptBytes.
func (t *Tracker) clear() bool {
	t.tree.Reset()
	t.delRuns, t.cur, t.parents, t.runBuf = t.delRuns[:0], t.cur[:0], t.parents[:0], t.runBuf[:0]
	t.diffA, t.diffB = t.diffA[:0], t.diffB[:0]
	return t.tree.Bytes()+cap(t.delRuns)*int(unsafe.Sizeof(delRun{}))+cap(t.runBuf)*int(unsafe.Sizeof(moveRun{}))+
		(cap(t.cur)+cap(t.parents))*int(unsafe.Sizeof(causal.Ref{}))+
		(cap(t.diffA)+cap(t.diffB))*int(unsafe.Sizeof(causal.Span{})) <= maxKeptBytes
}

// items is the number of pieces the internal state is held in.
func (t *Tracker) items() int { return t.tree.Items() }

// ApplyRange replays the events in span (storage order) run by run. For
// each maximal run of events at lv >= emitFrom whose transformed
// operation is not a no-op, emit is called with the transformed span
// operation. emit may be nil to replay purely for internal state (the
// catch-up phase of partial replay).
func (t *Tracker) ApplyRange(span causal.Span, emitFrom causal.LV, emit func(lv causal.LV, op XOp)) error {
	t.seam = -1
	after := t.end == span.Start
	t.end = span.End
	var err error
	for w := t.log.Graph.EntriesIn(span); ; {
		run, last, parents, ok := w.NextRefs(t.parents[:0])
		if !ok {
			return nil
		}
		t.parents = parents
		// Only an entry clipped at span's start has its parent in itself.
		if after && len(parents) == 1 && parents[0].Ent == last.Ent {
			t.seam = run.Start
		}
		if err = t.moveTo(parents); err != nil {
			return err
		}
		t.log.EachRunFrom(&t.at, run, func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, text []byte) bool {
			if kind == oplog.Insert {
				err = t.applyInsertRun(lvs, pos, text, emitFrom, emit)
			} else {
				err = t.applyDeleteRun(lvs, pos, dir, emitFrom, emit)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
		t.cur = append(t.cur[:0], last)
	}
}

// moveTo retreats and advances events so the prepare version equals
// parents (§3.2), shifting whole runs per B-tree operation.
func (t *Tracker) moveTo(parents []causal.Ref) error {
	if slices.Equal(t.cur, parents) {
		return nil
	}
	onlyCur, onlyNew := t.log.Graph.DiffInto(t.cur, parents, t.diffA, t.diffB)
	t.diffA, t.diffB = onlyCur, onlyNew
	// Retreat in reverse topological (descending LV) order so deletes of
	// a unit retreat before the insertion that created it.
	for i := len(onlyCur) - 1; i >= 0; i-- {
		if err := t.shiftSpan(onlyCur[i], -1, true); err != nil {
			return fmt.Errorf("retreat %v: %w", onlyCur[i], err)
		}
	}
	// Advance in topological (ascending LV) order.
	for _, sp := range onlyNew {
		if err := t.shiftSpan(sp, +1, false); err != nil {
			return fmt.Errorf("advance %v: %w", sp, err)
		}
	}
	t.cur = append(t.cur[:0], parents...)
	return nil
}

// shiftSpan retreats (delta = -1) or advances (delta = +1) every event in
// sp, processing the span's operation runs in descending LV order when
// reverse is set (retreats) and ascending otherwise (advances).
func (t *Tracker) shiftSpan(sp causal.Span, delta int32, reverse bool) error {
	runs := t.runBuf[:0]
	t.log.EachKindFrom(&t.moved, sp, func(lvs causal.Span, kind oplog.Kind) {
		runs = append(runs, moveRun{lvs: lvs, kind: kind})
	})
	t.runBuf = runs
	if reverse {
		for i := len(runs) - 1; i >= 0; i-- {
			if err := t.shiftRun(runs[i], delta); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range runs {
		if err := t.shiftRun(r, delta); err != nil {
			return err
		}
	}
	return nil
}

// shiftRun state-shifts the units touched by one operation run along the
// Figure 5 state machine: NYI <-> Ins <-> Del 1 <-> Del 2 <-> ...
func (t *Tracker) shiftRun(r moveRun, delta int32) error {
	if r.kind == oplog.Insert {
		// An insert run's units have IDs equal to their LVs, ascending in
		// document order.
		return t.shiftUnits(itemtree.ID(r.lvs.Start), r.lvs.Len(), delta, itemtree.StateNotInsertedYet, r.lvs.Start)
	}
	// Delete runs: resolve the targeted unit ranges from the RLE index.
	i := sort.Search(len(t.delRuns), func(i int) bool { return t.delRuns[i].lvs.End > r.lvs.Start })
	covered := r.lvs.Start
	for ; i < len(t.delRuns) && t.delRuns[i].lvs.Start < r.lvs.End; i++ {
		dr := &t.delRuns[i]
		if dr.lvs.Start > covered {
			break // gap: events never applied
		}
		s, e := dr.lvs.Start, dr.lvs.End
		if s < r.lvs.Start {
			s = r.lvs.Start
		}
		if e > r.lvs.End {
			e = r.lvs.End
		}
		n := int(e - s)
		// The chunk's targets form the contiguous ID range from the
		// target of event s, n steps along dr.step. Convert to the
		// chunk's first unit in document order.
		first := dr.target + int64(s-dr.lvs.Start)*int64(dr.step)
		last := first + int64(n-1)*int64(dr.step)
		lo, hi := first, last
		if lo > hi {
			lo, hi = hi, lo
		}
		docFirst := lo
		if itemtree.IsPlaceholder(first) {
			docFirst = hi // placeholder unit IDs descend in document order
		}
		if err := t.shiftUnits(docFirst, n, delta, itemtree.StateInserted, s); err != nil {
			return err
		}
		covered = e
	}
	if covered < r.lvs.End {
		return fmt.Errorf("core: delete events [%d,%d) were never applied to this tracker", covered, r.lvs.End)
	}
	return nil
}

// shiftUnits applies a state shift of delta to the n units starting (in
// document order) at the unit with ID id, splitting pieces on demand so
// only those units are affected. minState guards the state machine; lv
// names the originating events in error messages.
func (t *Tracker) shiftUnits(id itemtree.ID, n int, delta, minState int32, lv causal.LV) error {
	for k := 0; k < n; {
		c, err := t.tree.CursorFor(itemtree.AdvanceID(id, k))
		if err != nil {
			return err
		}
		take := c.Item().Len - c.Offset()
		if take > n-k {
			take = n - k
		}
		var stateErr error
		t.tree.MutateRange(c, take, func(it *itemtree.Item) {
			next := it.CurState + delta
			if next < minState {
				stateErr = fmt.Errorf("core: events at %d shift %d from state %d underflows", lv, delta, it.CurState)
				return
			}
			it.CurState = next
		})
		if stateErr != nil {
			return stateErr
		}
		k += take
	}
	return nil
}

// applyInsertRun applies a run of consecutive insertions whose parents
// equal the current prepare version as a single B-tree record (§3.3,
// §3.8). The whole run shares one integration scan: units after the
// first land immediately after their predecessor by construction.
func (t *Tracker) applyInsertRun(lvs causal.Span, pos int, text []byte, emitFrom causal.LV, emit func(causal.LV, XOp)) error {
	c, oleft, oright, err := t.tree.FindInsert(pos)
	if err != nil {
		return fmt.Errorf("core: apply insert %d: %w", lvs.Start, err)
	}
	n := lvs.Len()
	ic, resumed := t.resumeInsertRun(lvs.Start, oleft, n)
	if !resumed {
		dest, err := integrate(t.log, t.tree, lvs.Start, c, oleft, oright)
		if err != nil {
			return err
		}
		ic = t.tree.InsertAt(dest, itemtree.Item{
			ID:          itemtree.ID(lvs.Start),
			Len:         n,
			CurState:    itemtree.StateInserted,
			OriginLeft:  oleft,
			OriginRight: oright,
		})
	}
	if t.onIDOp != nil {
		ol := oleft
		for i, c := range t.log.AppendRunes(nil, lvs.Start, text) {
			t.onIDOp(lvs.Start+causal.LV(i), oplog.Op{Kind: oplog.Insert, Pos: pos + i, Content: c}, ol, oright, 0)
			ol = itemtree.ID(lvs.Start) + int64(i)
		}
	}
	if emit != nil && lvs.End > emitFrom {
		skip := 0
		if emitFrom > lvs.Start {
			skip = int(emitFrom - lvs.Start)
		}
		emit(lvs.Start+causal.LV(skip), XOp{
			Kind: oplog.Insert,
			Pos:  t.tree.CountEndBefore(ic) + skip,
			N:    n - skip,
			Text: text[utf8x.Skip(text, skip):],
		})
	}
	return nil
}

// resumeInsertRun adds the n units of the insert run starting at lv to the
// record of the units before them, if they are the rest of a run whose
// head the ApplyRange before this one applied: lv is the seam, and the run
// is typed on from the unit of the event before it (oleft), which nothing
// has touched since. One replay of the run, uncut, would have made it one
// record, and a deletion is emitted a record at a time: this way the spans
// a merge emits do not depend on where the calls before it happened to
// end. (A delete run cut by a seam does stay two records; both are
// deleted, and nothing is emitted for those again.)
func (t *Tracker) resumeInsertRun(lv causal.LV, oleft itemtree.ID, n int) (itemtree.Cursor, bool) {
	if lv != t.seam || oleft != itemtree.ID(lv-1) {
		return itemtree.Cursor{}, false
	}
	c, err := t.tree.CursorFor(oleft)
	if err != nil {
		return itemtree.Cursor{}, false
	}
	if it := c.Item(); c.Offset() != it.Len-1 || it.CurState != itemtree.StateInserted || it.EverDeleted {
		return itemtree.Cursor{}, false
	}
	return t.tree.Extend(c, n), true
}

// applyDeleteRun applies a run of deletions whose parents equal the
// current prepare version. dir >= 0 is a forward run (every event at the
// same prepare index); dir < 0 is a backspace run (indexes descending).
// The run is consumed in chunks, one chunk per uniform-state B-tree
// piece, each mutated and emitted as a single span.
func (t *Tracker) applyDeleteRun(lvs causal.Span, pos int, dir int8, emitFrom causal.LV, emit func(causal.LV, XOp)) error {
	n := lvs.Len()
	lv := lvs.Start
	for n > 0 {
		c, err := t.tree.FindVisible(pos)
		if err != nil {
			return fmt.Errorf("core: apply delete %d: %w", lv, err)
		}
		it := c.Item()
		wasDeleted := it.EverDeleted
		var take int
		var first itemtree.Cursor // cursor at the chunk's first unit in document order
		step := int8(1)
		if itemtree.IsPlaceholder(it.ID) {
			step = -1 // placeholder unit IDs descend in document order
		}
		if dir < 0 {
			// Backspace: the event at lv deletes the unit under the
			// cursor; following events delete the units before it.
			take = c.Offset() + 1
			if take > n {
				take = n
			}
			first = c.Rewind(take - 1)
			step = -step
		} else {
			take = it.Len - c.Offset()
			if take > n {
				take = n
			}
			first = c
		}
		firstTarget := c.UnitID() // unit deleted by the event at lv
		mc := t.tree.MutateRange(first, take, func(it *itemtree.Item) {
			it.CurState++
			it.EverDeleted = true
		})
		t.recordDelRun(causal.Span{Start: lv, End: lv + causal.LV(take)}, firstTarget, step)
		if t.onIDOp != nil {
			id := firstTarget
			for i := 0; i < take; i++ {
				opPos := pos
				if dir < 0 {
					opPos = pos - i
				}
				t.onIDOp(lv+causal.LV(i), oplog.Op{Kind: oplog.Delete, Pos: opPos}, 0, 0, id)
				id += itemtree.ID(step)
			}
		}
		if emit != nil && !wasDeleted && lv+causal.LV(take) > emitFrom {
			emitN := take
			if emitFrom > lv {
				emitN = int(lv + causal.LV(take) - emitFrom)
			}
			emitLV := lv
			if emitFrom > lv {
				emitLV = emitFrom
			}
			// The chunk's units are no longer effect-visible, so
			// CountEndBefore yields the effect index of the whole range.
			emit(emitLV, XOp{Kind: oplog.Delete, Pos: t.tree.CountEndBefore(mc), N: emitN, Back: dir < 0})
		}
		n -= take
		lv += causal.LV(take)
		if dir < 0 {
			pos -= take
		}
	}
	return nil
}

// recordDelRun appends a delete-target chunk to the RLE index, merging
// with the previous entry when it continues the pattern.
func (t *Tracker) recordDelRun(lvs causal.Span, target itemtree.ID, step int8) {
	if k := len(t.delRuns); k > 0 {
		last := &t.delRuns[k-1]
		if last.lvs.End == lvs.Start && last.step == step &&
			last.target+int64(last.lvs.Len())*int64(step) == target {
			last.lvs.End = lvs.End
			return
		}
	}
	t.delRuns = append(t.delRuns, delRun{lvs: lvs, target: target, step: step})
}

// integrate decides where among concurrent insertions the new item goes,
// using the Yjs/YATA rules (§3.3): scan right from the insertion point
// over not-inserted-yet items, comparing their origins with the new
// item's, breaking ties by the inserting agent. All comparisons use raw
// positions, which are consistent across replicas for concurrent items.
// Scanning is item-at-a-time: a run's interior units inherit their
// predecessor as origin-left, so a whole run always orders atomically —
// exactly as the per-unit scan would decide.
func integrate(l *oplog.Log, tree *itemtree.Tree, newLV causal.LV, c itemtree.Cursor, oleft, oright itemtree.ID) (itemtree.Cursor, error) {
	if c.Valid() && c.UnitID() == oright || !c.Valid() && oright == itemtree.OriginEnd {
		// The unit at the insertion point is the right origin itself: no
		// concurrent items to order against (the common case), and no
		// position to look up.
		return c, nil
	}
	leftRaw, err := tree.RawPosOf(oleft)
	if err != nil {
		return c, err
	}
	rightRaw, err := tree.RawPosOf(oright)
	if err != nil {
		return c, err
	}
	scan := c
	scanRaw := tree.RawPos(scan)
	dest := scan
	scanning := false
	for {
		if !scanning {
			dest = scan
		}
		if scanRaw >= rightRaw || !scan.Valid() {
			break
		}
		other := scan.Item()
		if other.CurState != itemtree.StateNotInsertedYet {
			// Items between the insertion point and the right origin are
			// exactly the concurrent (NYI) items; reaching anything else
			// means we've hit the right origin.
			break
		}
		oL, err := tree.RawPosOf(other.OriginLeft)
		if err != nil {
			return c, err
		}
		if oL < leftRaw {
			break
		}
		if oL == leftRaw {
			oR, err := tree.RawPosOf(other.OriginRight)
			if err != nil {
				return c, err
			}
			switch {
			case oR < rightRaw:
				scanning = true
			case oR == rightRaw:
				if insertsBefore(l, newLV, other.ID) {
					// Same origins: order by agent, then seq.
					goto done
				}
				scanning = false
			default:
				scanning = false
			}
		}
		scanRaw += other.Len
		scan.NextItem() // if this hits the end, the Valid check above exits
	}
done:
	return dest, nil
}

// insertsBefore reports whether the insert event at newLV orders before
// the concurrent insert identified by otherID under the agent tie-break.
func insertsBefore(l *oplog.Log, newLV causal.LV, otherID itemtree.ID) bool {
	g := l.Graph
	a := g.IDOf(newLV)
	b := g.IDOf(causal.LV(otherID))
	if a.Agent != b.Agent {
		return a.Agent < b.Agent
	}
	return a.Seq < b.Seq
}
