package core

import (
	"egwalker/internal/causal"
	"egwalker/internal/oplog"
	"egwalker/internal/rope"
)

// This file is the replay planner (§3.5–§3.6). It walks the event graph
// in storage order, split into sections at critical versions:
//
//   - Runs of events whose own version and parent version are both
//     critical are emitted untransformed — no internal state is built at
//     all. Sequentially edited documents are almost entirely such runs,
//     and each operation run is emitted as one span.
//   - Each remaining section (between two adjacent critical versions) is
//     replayed through a Tracker seeded with a placeholder at the
//     section's base version; its state is discarded at the section's end
//     (the next critical version), and the emptied tracker serves the
//     next section.
//
// For incremental merges, only events from the latest critical version
// before the first new event are replayed (partial replay).
//
// Every Transform* entry point has a *UnitRef twin that drives the
// per-unit reference state (unitref.go) through the same planner,
// emitting one single-unit XOp per event. The two configurations must
// produce byte-identical documents and span streams that expand to the
// same per-unit operations; the differential tests hold them to that.

// sectionTracker is what the planner needs from an internal state: both
// Tracker and unitTracker implement it.
type sectionTracker interface {
	reset(base causal.Frontier, baseUnits int)
	ApplyRange(span causal.Span, emitFrom causal.LV, emit func(lv causal.LV, op XOp)) error
}

// emitFastRuns emits the events in [start, end) untransformed, one span
// per operation run.
func emitFastRuns(l *oplog.Log, start, end causal.LV, emit func(lv causal.LV, op XOp)) {
	l.EachRun(causal.Span{Start: start, End: end}, func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, content []rune) bool {
		if kind == oplog.Insert {
			emit(lvs.Start, XOp{Kind: oplog.Insert, Pos: pos, N: lvs.Len(), Content: content})
			return true
		}
		// A backspace run deleting at pos, pos-1, ... removes the range
		// ending at pos; a forward run removes the range starting there.
		n := lvs.Len()
		if dir < 0 {
			pos -= n - 1
		}
		emit(lvs.Start, XOp{Kind: oplog.Delete, Pos: pos, N: n, Back: dir < 0})
		return true
	})
}

// emitFastUnits is emitFastRuns for the per-unit reference mode.
func emitFastUnits(l *oplog.Log, start, end causal.LV, emit func(lv causal.LV, op XOp)) {
	l.EachOp(causal.Span{Start: start, End: end}, func(lv causal.LV, op oplog.Op) bool {
		x := XOp{Kind: op.Kind, Pos: op.Pos, N: 1}
		if op.Kind == oplog.Insert {
			x.Content = []rune{op.Content}
		}
		emit(lv, x)
		return true
	})
}

// transformRange is the shared planner; unitRef selects the per-unit
// reference state and emission.
func transformRange(l *oplog.Log, emitFrom causal.LV, emit func(lv causal.LV, op XOp), unitRef bool) error {
	g := l.Graph
	n := causal.LV(g.Len())
	if emitFrom >= n {
		return nil
	}
	// Start replay at the latest critical version before the first event
	// we must emit; everything before it cannot affect the transforms.
	// crit holds the runs of critical versions from that one on — the
	// planner never looks at the graph before it.
	var critBuf [8]causal.Span
	crit := g.CriticalSince(emitFrom-1, critBuf[:0])
	var i causal.LV
	if len(crit) > 0 && crit[0].Start < emitFrom {
		i = crit[0].Start + 1
	}
	// Here and after every step below, i is 0 or follows a critical
	// version, so the event at i can be emitted untransformed (§3.5: its
	// own version and its parent version both critical) iff i is critical.
	var tr sectionTracker
	for k := 0; i < n; {
		for k < len(crit) && crit[k].End <= i {
			k++
		}
		if k < len(crit) && crit[k].Start <= i {
			// The rest of the critical run is fast-path events.
			j := crit[k].End
			if s := max(i, emitFrom); s < j {
				if unitRef {
					emitFastUnits(l, s, j, emit)
				} else {
					emitFastRuns(l, s, j, emit)
				}
			}
			i = j
			continue
		}
		// Concurrent section [i, j): ends just after the next critical
		// version (or at the end of the graph).
		j := n
		if k < len(crit) {
			j = crit[k].Start + 1
		}
		base, baseUnits := causal.Root, 0 // the document is empty at the root version
		if i > 0 {
			base, baseUnits = causal.Frontier{i - 1}, -1
		}
		switch {
		case tr != nil:
			tr.reset(base, baseUnits)
		case unitRef:
			tr = newUnitTracker(l, base, baseUnits)
		default:
			tr = NewTracker(l, base, baseUnits)
		}
		if err := tr.ApplyRange(causal.Span{Start: i, End: j}, emitFrom, emit); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// TransformRange replays the graph as needed to transform the events in
// [emitFrom, log.Len()), calling emit for each transformed span
// operation in storage order. The caller's document must reflect exactly
// the events [0, emitFrom).
//
// TransformRange(l, 0, emit) transforms the entire graph; applying the
// emitted operations in order to an empty document yields replay(G).
func TransformRange(l *oplog.Log, emitFrom causal.LV, emit func(lv causal.LV, op XOp)) error {
	return transformRange(l, emitFrom, emit, false)
}

// TransformRangeUnitRef is TransformRange through the per-unit reference
// state: one single-unit operation per event (the differential oracle
// and the "before" configuration of the core benchmarks).
func TransformRangeUnitRef(l *oplog.Log, emitFrom causal.LV, emit func(lv causal.LV, op XOp)) error {
	return transformRange(l, emitFrom, emit, true)
}

// TransformAll transforms every event in the graph.
func TransformAll(l *oplog.Log, emit func(lv causal.LV, op XOp)) error {
	return TransformRange(l, 0, emit)
}

// TransformAllUnitRef transforms every event through the per-unit
// reference state.
func TransformAllUnitRef(l *oplog.Log, emit func(lv causal.LV, op XOp)) error {
	return TransformRangeUnitRef(l, 0, emit)
}

// TransformAllNoOpt replays the entire graph through a single tracker
// with no critical-version clearing and no fast path — the "optimisation
// disabled" configuration of Figure 9. The output is identical to
// TransformAll; only the cost differs.
func TransformAllNoOpt(l *oplog.Log, emit func(lv causal.LV, op XOp)) error {
	tr := NewTracker(l, causal.Root, 0)
	return tr.ApplyRange(causal.Span{Start: 0, End: causal.LV(l.Len())}, 0, emit)
}

// TransformAllNoOptUnitRef is TransformAllNoOpt through the per-unit
// reference state: both §3.5 and §3.8 optimisations disabled.
func TransformAllNoOptUnitRef(l *oplog.Log, emit func(lv causal.LV, op XOp)) error {
	tr := newUnitTracker(l, causal.Root, 0)
	return tr.ApplyRange(causal.Span{Start: 0, End: causal.LV(l.Len())}, 0, emit)
}

// IDOp is an event's operation in ID space: what a classic list CRDT
// would send over the network (§2.5). Inserts carry the CRDT origins; a
// delete carries the ID of the character it deletes. All IDs are
// itemtree IDs: the LV of the insert event that created the character
// (placeholders never occur because the conversion replays from the
// root), or the origin sentinels.
type IDOp struct {
	LV          causal.LV
	Kind        oplog.Kind
	Content     rune
	OriginLeft  int64
	OriginRight int64
	Target      int64
}

// ToIDOps converts the event log's position-based operations into
// ID-based CRDT operations by replaying the whole graph through a
// tracker (the "simulated replicas" conversion from §2.5 and the
// artifact's crdt-converter). The result is in storage order, which is a
// valid causal delivery order.
func ToIDOps(l *oplog.Log, emit func(IDOp)) error {
	tr := NewTracker(l, causal.Root, 0)
	tr.onIDOp = func(lv causal.LV, op oplog.Op, oleft, oright, target int64) {
		emit(IDOp{
			LV:          lv,
			Kind:        op.Kind,
			Content:     op.Content,
			OriginLeft:  oleft,
			OriginRight: oright,
			Target:      target,
		})
	}
	return tr.ApplyRange(causal.Span{Start: 0, End: causal.LV(l.Len())}, causal.LV(l.Len()), nil)
}

// ApplyXOp applies a transformed span operation to a rope document.
func ApplyXOp(r *rope.Rope, op XOp) error {
	if op.Kind == oplog.Insert {
		return r.InsertRunes(op.Pos, op.Content)
	}
	return r.Delete(op.Pos, op.N)
}

// replayRope applies a transform configuration to a fresh rope.
func replayRope(l *oplog.Log, transform func(*oplog.Log, func(causal.LV, XOp)) error) (*rope.Rope, error) {
	r := rope.New()
	var applyErr error
	err := transform(l, func(_ causal.LV, op XOp) {
		if applyErr == nil {
			applyErr = ApplyXOp(r, op)
		}
	})
	if err != nil {
		return nil, err
	}
	if applyErr != nil {
		return nil, applyErr
	}
	return r, nil
}

// ReplayRope replays the entire event graph into a fresh document.
func ReplayRope(l *oplog.Log) (*rope.Rope, error) {
	return replayRope(l, TransformAll)
}

// ReplayText replays the entire event graph and returns the document
// text.
func ReplayText(l *oplog.Log) (string, error) {
	r, err := ReplayRope(l)
	if err != nil {
		return "", err
	}
	return r.String(), nil
}

// ReplayRopeNoOpt is ReplayRope without the §3.5 optimisations (Fig 9).
func ReplayRopeNoOpt(l *oplog.Log) (*rope.Rope, error) {
	return replayRope(l, TransformAllNoOpt)
}

// ReplayRopeUnitRef is ReplayRope through the per-unit reference state.
func ReplayRopeUnitRef(l *oplog.Log) (*rope.Rope, error) {
	return replayRope(l, TransformAllUnitRef)
}

// ReplayTextUnitRef replays through the per-unit reference state and
// returns the document text.
func ReplayTextUnitRef(l *oplog.Log) (string, error) {
	r, err := ReplayRopeUnitRef(l)
	if err != nil {
		return "", err
	}
	return r.String(), nil
}
