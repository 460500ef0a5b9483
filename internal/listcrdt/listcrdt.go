// Package listcrdt is the reference list CRDT baseline from the paper's
// evaluation (§4.2, "Ref CRDT"): a classic YATA/Yjs-style text CRDT that
// keeps its full internal state (one record per character, including
// tombstones) for the lifetime of the document.
//
// Unlike Eg-walker, the state here is persistent: merging a remote
// operation requires the full record sequence in memory, and loading a
// document from disk means rebuilding (or deserialising) that state.
// This is exactly the cost profile the paper contrasts Eg-walker
// against.
//
// The CRDT shares its ordering rules (origins + agent tie-break) with
// Eg-walker's internal state, so both algorithms merge concurrent
// insertions identically — enabling like-for-like comparison and
// cross-validation.
package listcrdt

import (
	"fmt"
	"strings"

	"egwalker/internal/core"
	"egwalker/internal/itemtree"
	"egwalker/internal/oplog"
)

// Op is a CRDT operation in ID space, as it would be sent over the
// network. IDs are int64s unique per character (this process uses source
// event LVs; any unique assignment works).
type Op struct {
	ID          int64 // unique op/char id
	Agent       string
	Seq         int
	Kind        oplog.Kind
	Content     rune  // inserts
	OriginLeft  int64 // inserts: unit id or itemtree.OriginStart
	OriginRight int64 // inserts: unit id or itemtree.OriginEnd
	Target      int64 // deletes: id of the deleted character
}

// Patch is the index-based editor update produced by applying an op: the
// translation from ID space back to index space that CRDT papers often
// elide but editors require (§2.4).
type Patch struct {
	Kind    oplog.Kind
	Pos     int
	Content rune
	Noop    bool // delete of an already-deleted character
}

type agentSeq struct {
	agent string
	seq   int
}

// Doc is a CRDT replica.
type Doc struct {
	tree    *itemtree.Tree
	agents  map[int64]agentSeq
	content map[int64]rune
	applied map[int64]bool
}

// New returns an empty replica.
func New() *Doc {
	return &Doc{
		tree:    itemtree.New(),
		agents:  make(map[int64]agentSeq),
		content: make(map[int64]rune),
		applied: make(map[int64]bool),
	}
}

// Len returns the visible document length.
func (d *Doc) Len() int { return d.tree.EndLen() }

// Text returns the visible document text.
func (d *Doc) Text() string {
	var b strings.Builder
	b.Grow(d.Len())
	d.tree.Each(func(it itemtree.Item) bool {
		if !it.EverDeleted {
			b.WriteRune(d.content[it.ID])
		}
		return true
	})
	return b.String()
}

// Clone returns a deep copy of the replica — what forking a branch
// costs a CRDT-simulation system (§2.5).
func (d *Doc) Clone() *Doc {
	c := New()
	c.tree = d.tree.Clone()
	for k, v := range d.agents {
		c.agents[k] = v
	}
	for k, v := range d.content {
		c.content[k] = v
	}
	for k, v := range d.applied {
		c.applied[k] = v
	}
	return c
}

// Applied reports whether the op with the given id has been applied.
func (d *Doc) Applied(id int64) bool { return d.applied[id] }

// StateSize returns the number of records held in memory (including
// tombstones), for the memory benchmarks.
func (d *Doc) StateSize() int { return d.tree.RawLen() }

// LocalInsert generates and applies an insertion of c at visible
// position pos, returning the op to broadcast.
func (d *Doc) LocalInsert(id int64, agent string, seq, pos int, c rune) (Op, error) {
	cur, oleft, oright, err := d.tree.FindInsert(pos)
	if err != nil {
		return Op{}, err
	}
	op := Op{
		ID: id, Agent: agent, Seq: seq,
		Kind: oplog.Insert, Content: c,
		OriginLeft: oleft, OriginRight: oright,
	}
	// A locally generated insert has no concurrent rivals at its
	// position: it goes exactly at the boundary.
	d.tree.InsertAt(cur, itemtree.Item{
		ID:          id,
		Len:         1,
		CurState:    itemtree.StateInserted,
		OriginLeft:  oleft,
		OriginRight: oright,
	})
	d.register(op)
	return op, nil
}

// LocalDelete generates and applies a deletion of the character at
// visible position pos.
func (d *Doc) LocalDelete(id int64, agent string, seq, pos int) (Op, error) {
	cur, err := d.tree.FindVisible(pos)
	if err != nil {
		return Op{}, err
	}
	target := cur.UnitID()
	d.tree.MutateUnit(cur, func(it *itemtree.Item) {
		it.CurState = 1
		it.EverDeleted = true
	})
	op := Op{ID: id, Agent: agent, Seq: seq, Kind: oplog.Delete, Target: target}
	d.register(op)
	return op, nil
}

func (d *Doc) register(op Op) {
	d.applied[op.ID] = true
	d.agents[op.ID] = agentSeq{op.Agent, op.Seq}
	if op.Kind == oplog.Insert {
		d.content[op.ID] = op.Content
	}
}

// ApplyRemote applies an op received from another replica, returning the
// index-based patch for the local editor. Ops must be delivered in
// causal order (origins/targets already applied); duplicate delivery is
// detected and ignored.
func (d *Doc) ApplyRemote(op Op) (Patch, error) {
	if d.applied[op.ID] {
		return Patch{Noop: true}, nil
	}
	switch op.Kind {
	case oplog.Insert:
		dest, err := d.integrate(op)
		if err != nil {
			return Patch{}, err
		}
		ic := d.tree.InsertAt(dest, itemtree.Item{
			ID:          op.ID,
			Len:         1,
			CurState:    itemtree.StateInserted,
			OriginLeft:  op.OriginLeft,
			OriginRight: op.OriginRight,
		})
		d.register(op)
		return Patch{Kind: oplog.Insert, Pos: d.tree.CountEndBefore(ic), Content: op.Content}, nil
	case oplog.Delete:
		c, err := d.tree.CursorFor(op.Target)
		if err != nil {
			return Patch{}, fmt.Errorf("listcrdt: delete target %d unknown: %w", op.Target, err)
		}
		wasDeleted := c.Item().EverDeleted
		// A replica never retreats, so a deleted record is Del 1 however
		// many deletes reach it.
		mc := d.tree.MutateUnit(c, func(it *itemtree.Item) {
			it.CurState = 1
			it.EverDeleted = true
		})
		d.register(op)
		if wasDeleted {
			return Patch{Kind: oplog.Delete, Noop: true}, nil
		}
		return Patch{Kind: oplog.Delete, Pos: d.tree.CountEndBefore(mc)}, nil
	default:
		return Patch{}, fmt.Errorf("listcrdt: unknown op kind %d", op.Kind)
	}
}

// integrate finds the insertion cursor for a remote insert using the
// YATA rules: start just after the left origin, scan to the right origin
// comparing candidate items' origins, breaking ties by agent.
func (d *Doc) integrate(op Op) (itemtree.Cursor, error) {
	leftRaw, err := d.tree.RawPosOf(op.OriginLeft)
	if err != nil {
		return itemtree.Cursor{}, fmt.Errorf("listcrdt: origin left of %d: %w", op.ID, err)
	}
	rightRaw, err := d.tree.RawPosOf(op.OriginRight)
	if err != nil {
		return itemtree.Cursor{}, fmt.Errorf("listcrdt: origin right of %d: %w", op.ID, err)
	}
	scanRaw := leftRaw + 1
	scan, err := d.tree.FindRaw(scanRaw)
	if err != nil {
		return itemtree.Cursor{}, err
	}
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
		oL, err := d.tree.RawPosOf(other.OriginLeft)
		if err != nil {
			return itemtree.Cursor{}, err
		}
		if oL < leftRaw {
			break
		}
		if oL == leftRaw {
			oR, err := d.tree.RawPosOf(other.OriginRight)
			if err != nil {
				return itemtree.Cursor{}, err
			}
			switch {
			case oR < rightRaw:
				scanning = true
			case oR == rightRaw:
				if d.insertsBefore(op, other.ID) {
					return dest, nil
				}
				scanning = false
			default:
				scanning = false
			}
		}
		scanRaw += int(other.Len)
		scan.NextItem()
	}
	return dest, nil
}

func (d *Doc) insertsBefore(op Op, otherID int64) bool {
	o := d.agents[otherID]
	if op.Agent != o.agent {
		return op.Agent < o.agent
	}
	return op.Seq < o.seq
}

// FromLog converts an event log into the causally ordered ID-op stream a
// CRDT replica would receive over the network.
func FromLog(l *oplog.Log) ([]Op, error) {
	ops := make([]Op, 0, l.Len())
	err := core.ToIDOps(l, func(io core.IDOp) {
		id := l.Graph.IDOf(io.LV)
		ops = append(ops, Op{
			ID:          int64(io.LV),
			Agent:       id.Agent,
			Seq:         id.Seq,
			Kind:        io.Kind,
			Content:     io.Content,
			OriginLeft:  io.OriginLeft,
			OriginRight: io.OriginRight,
			Target:      io.Target,
		})
	})
	if err != nil {
		return nil, err
	}
	return ops, nil
}

// Merge applies a whole stream of remote ops (the Fig 8 merge workload).
func (d *Doc) Merge(ops []Op) error {
	for _, op := range ops {
		if _, err := d.ApplyRemote(op); err != nil {
			return err
		}
	}
	return nil
}
