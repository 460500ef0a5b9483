package core

// This file is the per-unit reference implementation of the Eg-walker
// internal state: one B-tree record and one transformed operation per
// character, exactly as the algorithm is described in paper §3.2–§3.4
// before the run-length optimisation of §3.8. The production Tracker
// (tracker.go) applies whole runs at a time; this implementation is kept
// as the differential oracle — TransformAllUnitRef must emit a stream
// that expands to the same per-unit operations and produces a
// byte-identical document — and as the "before" configuration of the
// core benchmarks (cmd/egbench core).

import (
	"fmt"

	"egwalker/internal/causal"
	"egwalker/internal/itemtree"
	"egwalker/internal/oplog"
)

// unitTracker is the per-unit internal state. All events applied to it
// must be at or after the base version.
type unitTracker struct {
	log  *oplog.Log
	tree *itemtree.Tree
	// delTargets records, for each applied delete event, the unit it
	// deleted — the unoptimised per-event map form of the paper's second
	// B-tree.
	delTargets map[causal.LV]itemtree.ID
	// cur is the prepare version.
	cur causal.Frontier
}

// newUnitTracker returns a per-unit tracker seeded at base. baseUnits is
// the document length at the base version, or -1 if unknown.
func newUnitTracker(l *oplog.Log, base causal.Frontier, baseUnits int) *unitTracker {
	t := &unitTracker{
		log:        l,
		tree:       itemtree.New(),
		delTargets: make(map[causal.LV]itemtree.ID),
	}
	t.reset(base, baseUnits)
	return t
}

// reset discards the internal state and seeds the tracker at base.
func (t *unitTracker) reset(base causal.Frontier, baseUnits int) {
	t.tree.Reset()
	clear(t.delTargets)
	t.cur = base.Clone()
	if baseUnits < 0 {
		baseUnits = infinitePlaceholder
	}
	t.tree.InitPlaceholder(baseUnits)
}

// clear keeps nothing: the reference builds a new state after every drop.
func (t *unitTracker) clear() bool { return false }

func (t *unitTracker) items() int { return t.tree.Items() }

// bytes counts the tree alone: a map's storage is not in sight.
func (t *unitTracker) bytes() int { return t.tree.Bytes() }

// ApplyRange replays the events in span (storage order), emitting one
// transformed operation per event at lv >= emitFrom.
func (t *unitTracker) ApplyRange(span causal.Span, emitFrom causal.LV, emit func(lv causal.LV, op XOp)) error {
	var rbuf [4]causal.Ref
	var pbuf [4]causal.LV
	refs, parents := rbuf[:0], causal.Frontier(pbuf[:0])
	for w := t.log.Graph.EntriesIn(span); ; {
		run, _, ps, ok := w.NextRefs(refs)
		if !ok {
			return nil
		}
		refs, parents = ps, parents[:0]
		for _, p := range ps {
			parents = append(parents, p.LV)
		}
		if err := t.moveTo(parents); err != nil {
			return err
		}
		var err error
		t.log.EachOp(run, func(opLV causal.LV, op oplog.Op) bool {
			e := emit
			if opLV < emitFrom {
				e = nil
			}
			err = t.applyOne(opLV, op, e)
			return err == nil
		})
		if err != nil {
			return err
		}
		t.cur = causal.Frontier{run.End - 1}
	}
}

// moveTo retreats and advances events so the prepare version equals
// parents (§3.2).
func (t *unitTracker) moveTo(parents causal.Frontier) error {
	if t.cur.Eq(parents) {
		return nil
	}
	onlyCur, onlyNew := t.log.Graph.Diff(t.cur, parents)
	// Retreat in reverse topological (descending LV) order.
	for i := len(onlyCur) - 1; i >= 0; i-- {
		for lv := onlyCur[i].End - 1; lv >= onlyCur[i].Start; lv-- {
			if err := t.shift(lv, -1); err != nil {
				return fmt.Errorf("retreat %d: %w", lv, err)
			}
		}
	}
	// Advance in topological (ascending LV) order.
	for _, sp := range onlyNew {
		for lv := sp.Start; lv < sp.End; lv++ {
			if err := t.shift(lv, +1); err != nil {
				return fmt.Errorf("advance %d: %w", lv, err)
			}
		}
	}
	t.cur = parents.Clone()
	return nil
}

// shift applies a retreat (delta = -1) or advance (delta = +1) of the
// event at lv to the prepare state, one unit at a time (Figure 5).
func (t *unitTracker) shift(lv causal.LV, delta int16) error {
	op := t.log.OpAt(lv)
	var id itemtree.ID
	if op.Kind == oplog.Insert {
		id = itemtree.ID(lv)
	} else {
		target, ok := t.delTargets[lv]
		if !ok {
			return fmt.Errorf("core: delete event %d was never applied to this tracker", lv)
		}
		id = target
	}
	c, err := t.tree.CursorFor(id)
	if err != nil {
		return err
	}
	minState := itemtree.StateNotInsertedYet
	if op.Kind == oplog.Delete {
		// A delete moves between Ins (0) and Del k (>= 1); it can never
		// make the record NYI.
		minState = itemtree.StateInserted
	}
	var stateErr error
	t.tree.MutateUnit(c, func(it *itemtree.Item) { stateErr = shiftState(it, delta, minState, lv) })
	return stateErr
}

// applyOne applies a single event whose parents equal the current prepare
// version (§3.3), inserting a one-unit record per character.
func (t *unitTracker) applyOne(lv causal.LV, op oplog.Op, emit func(causal.LV, XOp)) error {
	switch op.Kind {
	case oplog.Insert:
		c, oleft, oright, err := t.tree.FindInsert(op.Pos)
		if err != nil {
			return fmt.Errorf("core: apply insert %d: %w", lv, err)
		}
		dest, err := integrate(t.log, t.tree, lv, c, oleft, oright)
		if err != nil {
			return err
		}
		ic := t.tree.InsertAt(dest, itemtree.Item{
			ID:          itemtree.ID(lv),
			Len:         1,
			CurState:    itemtree.StateInserted,
			OriginLeft:  oleft,
			OriginRight: oright,
		})
		if emit != nil {
			emit(lv, XOp{Kind: oplog.Insert, Pos: t.tree.CountEndBefore(ic), N: 1, Content: []rune{op.Content}})
		}
	case oplog.Delete:
		c, err := t.tree.FindVisible(op.Pos)
		if err != nil {
			return fmt.Errorf("core: apply delete %d: %w", lv, err)
		}
		wasDeleted := c.Item().EverDeleted
		mc := t.tree.MutateUnit(c, func(it *itemtree.Item) {
			it.CurState++
			it.EverDeleted = true
		})
		t.delTargets[lv] = mc.Item().ID
		if emit != nil && !wasDeleted {
			emit(lv, XOp{Kind: oplog.Delete, Pos: t.tree.CountEndBefore(mc), N: 1})
		}
	default:
		return fmt.Errorf("core: unknown op kind %d", op.Kind)
	}
	return nil
}
