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
//     next section, in this call or a later one.
//
// The paper lets the internal state go at a critical version; it does not
// ask for it to go any earlier. A call that ends inside a section — the
// graph's frontier is not critical — leaves the section's tracker in its
// Walker, and the next call made with that Walker picks the section up
// where it was left: the events in between (local edits, already in the
// caller's document) are replayed without emitting, the new ones are
// transformed, and what a merge into an open bubble costs is its new
// events, not the bubble. A Walker with nothing kept plans from the
// latest critical version before the first event to emit (partial
// replay); that is the only difference, the loop is the same one.
//
// The kept state is let go
//
//   - when a call ends at a critical version (§3.5), or its caller found
//     the frontier critical without asking the planner (Drop);
//   - when a new event has a parent below the section's base: the base is
//     no longer critical, and the section has to be planned again from
//     the critical version before it;
//   - when a call fails: the tracker stopped half-way through an event;
//   - when the tracker holds more than maxRetainedItems pieces.
//
// What is let go is the state, not the storage: the emptied tracker stays
// in the Walker for the next section, so that a server applying a small
// bubble per call builds its tracker once, unless what the emptied
// tracker still holds has outgrown maxKeptBytes.
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
	// clear lets the state go and reports whether the tracker may be kept.
	clear() bool
	ApplyRange(span causal.Span, emitFrom causal.LV, emit func(lv causal.LV, op XOp)) error
	items() int
}

// maxRetainedItems is the most pieces a tracker may hold and still be kept
// for the next call. A piece costs about 130 bytes — a 48-byte item in a
// leaf half full, its 16-byte index entry, its share of the delete index —
// so what a document carries between merges stays under about 8 MB, and
// about what the events of the bubble cost the document itself (typed
// text makes a piece every five or six events). A bubble that outgrows
// the budget, some hundred thousand events of typing, is planned from its
// base on every call, as every bubble was when nothing was kept. It is a
// constant because no caller knows better.
const maxRetainedItems = 1 << 16

// maxKeptBytes is the most storage an emptied tracker may hold — the
// tree's one leaf and ID index, the delete index and the scratch arrays,
// at the capacity the largest section since it was built left them — and
// still be kept for the next section. 32 KB is a bubble of some hundreds
// of pieces: what keystrokes typed at once by a few writers make between
// two merges. A tracker grown past it by a larger bubble is let go with
// its state, or a document would hold the largest bubble it ever merged.
const maxKeptBytes = 32 << 10

// WalkerStats counts what the calls made with one Walker did.
// egwalker.ReplayStats is this struct under its public name.
type WalkerStats struct {
	SectionsContinued      uint64 // sections entered with the state an earlier call left
	SectionsRebuilt        uint64 // sections entered with an empty state seeded at their base
	EventsReplayed         uint64 // events replayed through a state, emitted or not
	EventsReplayedSilently uint64 // those before emitFrom: replayed for the state alone
	GraphEntriesVisited    uint64 // graph entries visited looking for critical versions
	RetainedItems          int    // pieces in the state kept for the next call, 0 when none is
}

// Walker is the planner's state between calls: the tracker of the
// concurrent section the last call ended inside, if it ended inside one,
// or else the emptied tracker of the last section, if it was small enough
// to keep. The zero value holds nothing and is ready to use. A Walker
// serves one log, whose events it must be shown in order: each call's
// emitFrom is at or after the end of the log at the call before.
type Walker struct {
	tr sectionTracker
	// open says tr holds the events [start, through) of a section that
	// was still open when the last call returned; start-1 is its base.
	// Otherwise tr is nil or empty.
	open           bool
	unitRef        bool // the per-unit reference state and emission
	start, through causal.LV
	base           [1]causal.LV // a section's base, handed to tr without an allocation
	stats          WalkerStats
}

// Stats returns the Walker's counters: all zero for a nil Walker, which
// has done nothing yet.
func (w *Walker) Stats() WalkerStats {
	if w == nil {
		return WalkerStats{}
	}
	st := w.stats
	if w.open {
		st.RetainedItems = w.tr.items()
	}
	return st
}

// Drop lets go of the section kept for the next call, if there is one (a
// nil Walker keeps none). The emptied tracker stays for the next section
// unless its storage has outgrown maxKeptBytes.
func (w *Walker) Drop() {
	if w == nil {
		return
	}
	if w.open = false; w.tr != nil && !w.tr.clear() {
		w.tr = nil
	}
}

// emitFastRuns emits the events of span untransformed, one span operation
// per operation run.
func emitFastRuns(l *oplog.Log, span causal.Span, emit func(lv causal.LV, op XOp)) {
	l.EachRun(span, func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, text []byte) bool {
		if kind == oplog.Insert {
			emit(lvs.Start, XOp{Kind: oplog.Insert, Pos: pos, N: lvs.Len(), Text: text})
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
func emitFastUnits(l *oplog.Log, span causal.Span, emit func(lv causal.LV, op XOp)) {
	l.EachOp(span, func(lv causal.LV, op oplog.Op) bool {
		x := XOp{Kind: op.Kind, Pos: op.Pos, N: 1}
		if op.Kind == oplog.Insert {
			x.Content = []rune{op.Content}
		}
		emit(lv, x)
		return true
	})
}

// TransformRange replays the graph as needed to transform the events in
// [emitFrom, log.Len()), calling emit for each transformed span
// operation in storage order. The caller's document must reflect exactly
// the events [0, emitFrom). On an error the operations emitted before it
// stand.
func (w *Walker) TransformRange(l *oplog.Log, emitFrom causal.LV, emit func(lv causal.LV, op XOp)) error {
	g := l.Graph
	n := causal.LV(g.Len())
	if emitFrom >= n {
		return nil
	}
	// crit holds the runs of critical versions from the planner's starting
	// point i on; it never looks at the graph before that. With a section
	// kept, i is where its tracker stopped, as long as the base still is
	// critical: no version inside the section was critical then, so none
	// is now, and only the entries added since can have a parent below
	// the base.
	var critBuf [8]causal.Span
	var crit []causal.Span
	var i causal.LV
	var visited int
	if w.open {
		var minParent causal.LV
		crit, minParent, visited = g.CriticalFrom(w.through, critBuf[:0])
		w.stats.GraphEntriesVisited += uint64(visited)
		if i = w.through; minParent < w.start-1 || emitFrom < i {
			w.Drop()
		}
	}
	if !w.open {
		// Start at the latest critical version before the first event to
		// emit; everything before it cannot affect the transforms.
		crit, visited = g.CriticalSince(emitFrom-1, critBuf[:0])
		w.stats.GraphEntriesVisited += uint64(visited)
		if i = 0; len(crit) > 0 && crit[0].Start < emitFrom {
			i = crit[0].Start + 1
		}
	}
	// Here and after every step below, i is 0 or follows a critical
	// version — unless w.open, when it continues a section — so the event
	// at i can be emitted untransformed (§3.5: its own version and its
	// parent version both critical) iff i is critical.
	for k := 0; i < n; {
		for k < len(crit) && crit[k].End <= i {
			k++
		}
		if !w.open && k < len(crit) && crit[k].Start <= i {
			// The rest of the critical run is fast-path events.
			j := crit[k].End
			if fast := (causal.Span{Start: max(i, emitFrom), End: j}); fast.Len() > 0 {
				if w.unitRef {
					emitFastUnits(l, fast, emit)
				} else {
					emitFastRuns(l, fast, emit)
				}
			}
			i = j
			continue
		}
		// Concurrent section [i, j): ends just after the next critical
		// version (or at the end of the graph, and then stays open).
		j := n
		if k < len(crit) {
			j = crit[k].Start + 1
		}
		if w.open {
			w.stats.SectionsContinued++
		} else {
			base, baseUnits := causal.Root, 0 // the document is empty at the root version
			if i > 0 {
				w.base[0] = i - 1
				base, baseUnits = w.base[:], -1
			}
			switch {
			case w.tr != nil:
				w.tr.reset(base, baseUnits)
			case w.unitRef:
				w.tr = newUnitTracker(l, base, baseUnits)
			default:
				w.tr = NewTracker(l, base, baseUnits)
			}
			w.start = i
			w.stats.SectionsRebuilt++
		}
		w.open = k == len(crit)
		w.stats.EventsReplayed += uint64(j - i)
		if silent := min(j, emitFrom) - i; silent > 0 {
			w.stats.EventsReplayedSilently += uint64(silent)
		}
		if err := w.tr.ApplyRange(causal.Span{Start: i, End: j}, emitFrom, emit); err != nil {
			w.Drop()
			return err
		}
		i = j
	}
	if w.through = n; !w.open || w.tr.items() > maxRetainedItems {
		w.Drop()
	}
	return nil
}

// TransformAll transforms every event in the graph; applying the emitted
// operations in order to an empty document yields replay(G). Its inserts,
// and its variants', carry their characters as runes too (XOp.Content).
func TransformAll(l *oplog.Log, emit func(lv causal.LV, op XOp)) error {
	return transformAll(l, withRunes(l, emit))
}

// transformAll is TransformAll with the inserts' characters as UTF-8 only.
func transformAll(l *oplog.Log, emit func(lv causal.LV, op XOp)) error {
	return new(Walker).TransformRange(l, 0, emit)
}

// withRunes returns emit for inserts that carry their runes too, in one buffer.
func withRunes(l *oplog.Log, emit func(lv causal.LV, op XOp)) func(lv causal.LV, op XOp) {
	var buf []rune
	return func(lv causal.LV, op XOp) {
		if op.Kind == oplog.Insert && op.Content == nil {
			buf = l.AppendRunes(buf[:0], lv, op.Text)
			op.Content = buf
		}
		emit(lv, op)
	}
}

// TransformAllUnitRef is TransformAll through the per-unit reference
// state: one single-unit operation per event (the differential oracle
// and the "before" configuration of the core benchmarks).
func TransformAllUnitRef(l *oplog.Log, emit func(lv causal.LV, op XOp)) error {
	return (&Walker{unitRef: true}).TransformRange(l, 0, withRunes(l, emit))
}

// TransformAllNoOpt replays the entire graph through a single tracker
// with no critical-version clearing and no fast path — the "optimisation
// disabled" configuration of Figure 9. The output is identical to
// TransformAll; only the cost differs.
func TransformAllNoOpt(l *oplog.Log, emit func(lv causal.LV, op XOp)) error {
	tr := NewTracker(l, causal.Root, 0)
	return tr.ApplyRange(causal.Span{Start: 0, End: causal.LV(l.Len())}, 0, withRunes(l, emit))
}

// TransformAllNoOptUnitRef is TransformAllNoOpt through the per-unit
// reference state: both §3.5 and §3.8 optimisations disabled.
func TransformAllNoOptUnitRef(l *oplog.Log, emit func(lv causal.LV, op XOp)) error {
	tr := newUnitTracker(l, causal.Root, 0)
	return tr.ApplyRange(causal.Span{Start: 0, End: causal.LV(l.Len())}, 0, withRunes(l, emit))
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
	if op.Kind == oplog.Insert && op.Text != nil {
		return r.InsertUTF8(op.Pos, op.Text, op.N)
	}
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
	return replayRope(l, transformAll)
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
