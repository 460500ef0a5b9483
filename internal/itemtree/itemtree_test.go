package itemtree

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestItemRecordSize: a field added to the record shows here first. It is
// three IDs, a 32-bit length, a 16-bit state and the effect flag.
func TestItemRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Item{}); got != 32 {
		t.Fatalf("an item record is %d bytes, want 32", got)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.RawLen() != 0 || tr.CurLen() != 0 || tr.EndLen() != 0 {
		t.Fatalf("empty tree lens = %d %d %d", tr.RawLen(), tr.CurLen(), tr.EndLen())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.FindVisible(0); err == nil {
		t.Error("FindVisible on empty tree should fail")
	}
	c, l, r, err := tr.FindInsert(0)
	if err != nil {
		t.Fatal(err)
	}
	if l != OriginStart || r != OriginEnd {
		t.Errorf("origins = %d, %d", l, r)
	}
	ins := tr.InsertAt(c, Item{ID: 0, Len: 1, CurState: StateInserted, OriginLeft: l, OriginRight: r})
	if tr.CurLen() != 1 || tr.EndLen() != 1 {
		t.Fatalf("after insert lens = %d %d", tr.CurLen(), tr.EndLen())
	}
	if got := tr.CountEndBefore(ins); got != 0 {
		t.Errorf("CountEndBefore = %d", got)
	}
}

func TestPlaceholderIDs(t *testing.T) {
	for _, u := range []int{0, 1, 7, 1 << 30} {
		id := PlaceholderID(u)
		if !IsPlaceholder(id) {
			t.Errorf("PlaceholderID(%d) = %d not recognised", u, id)
		}
		if got := PlaceholderUnit(id); got != u {
			t.Errorf("round trip %d -> %d", u, got)
		}
	}
	if IsPlaceholder(0) || IsPlaceholder(5) || IsPlaceholder(OriginStart) {
		t.Error("non-placeholder IDs misclassified")
	}
}

func TestPlaceholderSplitOnDelete(t *testing.T) {
	tr := New()
	tr.InitPlaceholder(10)
	if tr.CurLen() != 10 || tr.EndLen() != 10 {
		t.Fatalf("lens = %d %d", tr.CurLen(), tr.EndLen())
	}
	// Delete the unit at prepare index 4.
	c, err := tr.FindVisible(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CountEndBefore(c); got != 4 {
		t.Fatalf("effect index = %d, want 4", got)
	}
	mc := tr.MutateUnit(c, func(it *Item) {
		it.CurState = 1
		it.EverDeleted = true
	})
	if tr.CurLen() != 9 || tr.EndLen() != 9 {
		t.Fatalf("after delete lens = %d %d", tr.CurLen(), tr.EndLen())
	}
	if got := mc.Item().ID; got != PlaceholderID(4) {
		t.Fatalf("materialized ID = %d, want %d", got, PlaceholderID(4))
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// The unit after the deleted one: prepare index 4 now maps to base
	// unit 5, effect index 4 (the deleted unit no longer counts).
	c2, err := tr.FindVisible(4)
	if err != nil {
		t.Fatal(err)
	}
	if c2.UnitID() != PlaceholderID(5) {
		t.Fatalf("unit = %d, want %d", c2.UnitID(), PlaceholderID(5))
	}
	if got := tr.CountEndBefore(c2); got != 4 {
		t.Fatalf("effect index = %d, want 4", got)
	}
	// Retreat the delete: unit visible again in prepare, still deleted in
	// effect.
	rc, err := tr.CursorFor(PlaceholderID(4))
	if err != nil {
		t.Fatal(err)
	}
	tr.MutateUnit(rc, func(it *Item) { it.CurState = 0 })
	if tr.CurLen() != 10 || tr.EndLen() != 9 {
		t.Fatalf("after retreat lens = %d %d", tr.CurLen(), tr.EndLen())
	}
}

func TestInsertIntoPlaceholderMiddle(t *testing.T) {
	tr := New()
	tr.InitPlaceholder(6)
	c, l, r, err := tr.FindInsert(3)
	if err != nil {
		t.Fatal(err)
	}
	if l != PlaceholderID(2) || r != PlaceholderID(3) {
		t.Fatalf("origins = %d, %d; want %d, %d", l, r, PlaceholderID(2), PlaceholderID(3))
	}
	ic := tr.InsertAt(c, Item{ID: 100, Len: 1, CurState: StateInserted, OriginLeft: l, OriginRight: r})
	if tr.RawLen() != 7 || tr.CurLen() != 7 {
		t.Fatalf("lens = %d %d", tr.RawLen(), tr.CurLen())
	}
	if got := tr.CountEndBefore(ic); got != 3 {
		t.Fatalf("effect index = %d, want 3", got)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// RawPosOf must resolve placeholder units after the split.
	for u := 0; u < 6; u++ {
		want := u
		if u >= 3 {
			want = u + 1
		}
		got, err := tr.RawPosOf(PlaceholderID(u))
		if err != nil {
			t.Fatalf("RawPosOf(ph %d): %v", u, err)
		}
		if got != want {
			t.Errorf("RawPosOf(ph %d) = %d, want %d", u, got, want)
		}
	}
	if got, _ := tr.RawPosOf(100); got != 3 {
		t.Errorf("RawPosOf(100) = %d, want 3", got)
	}
	if got, _ := tr.RawPosOf(OriginStart); got != -1 {
		t.Errorf("RawPosOf(start) = %d", got)
	}
	if got, _ := tr.RawPosOf(OriginEnd); got != 7 {
		t.Errorf("RawPosOf(end) = %d", got)
	}
}

func TestOriginRightSkipsNYI(t *testing.T) {
	tr := New()
	// Two real items, the first NYI.
	c, l, r, _ := tr.FindInsert(0)
	tr.InsertAt(c, Item{ID: 1, Len: 1, CurState: StateInserted, OriginLeft: l, OriginRight: r})
	c, l, r, _ = tr.FindInsert(1)
	tr.InsertAt(c, Item{ID: 2, Len: 1, CurState: StateInserted, OriginLeft: l, OriginRight: r})
	// Retreat item 1: becomes NYI.
	rc, _ := tr.CursorFor(1)
	tr.MutateUnit(rc, func(it *Item) { it.CurState = StateNotInsertedYet })
	// Inserting at prepare position 0 must see origin right = item 2
	// (skipping the NYI item 1)... but the insertion point is before the
	// NYI item, and the scan finds the first non-NYI unit.
	_, l, r, err := tr.FindInsert(0)
	if err != nil {
		t.Fatal(err)
	}
	if l != OriginStart || r != 2 {
		t.Fatalf("origins = %d, %d; want start, 2", l, r)
	}
}

// model is a flat reference implementation: one entry per unit.
type modelUnit struct {
	id          ID
	curState    int16
	everDeleted bool
}

type model []modelUnit

func (m model) curLen() int {
	n := 0
	for _, u := range m {
		if u.curState == StateInserted {
			n++
		}
	}
	return n
}

func (m model) endLen() int {
	n := 0
	for _, u := range m {
		if !u.everDeleted {
			n++
		}
	}
	return n
}

// findVisible returns the raw index of the pos-th cur-visible unit.
func (m model) findVisible(pos int) int {
	for i, u := range m {
		if u.curState == StateInserted {
			if pos == 0 {
				return i
			}
			pos--
		}
	}
	return -1
}

func (m model) countEndBefore(raw int) int {
	n := 0
	for _, u := range m[:raw] {
		if !u.everDeleted {
			n++
		}
	}
	return n
}

func (m model) rawPosOf(id ID) int {
	for i, u := range m {
		if u.id == id {
			return i
		}
	}
	return -1
}

// TestDifferentialAgainstModel drives the tree and the flat model with
// the same random operation sequence and compares every observable.
func TestDifferentialAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	tr := New()
	for trial := 0; trial < 30; trial++ {
		// Every other trial runs on the previous trial's tree, reset.
		if trial%2 == 0 {
			tr = New()
		} else {
			tr.Reset()
			// The index Reset keeps points at none of the leaves it let go.
			for i, e := range tr.index[:cap(tr.index)] {
				if e.leaf != nil {
					t.Fatalf("trial %d: after Reset index slot %d of %d still points at a leaf", trial, i, cap(tr.index))
				}
			}
		}
		var m model
		phUnits := rng.Intn(40)
		if phUnits > 0 {
			tr.InitPlaceholder(phUnits)
			for u := 0; u < phUnits; u++ {
				m = append(m, modelUnit{id: PlaceholderID(u), curState: StateInserted})
			}
		}
		nextID := ID(0)
		var realIDs []ID
		for step := 0; step < 400; step++ {
			op := rng.Intn(10)
			switch {
			case op < 4: // insert a new real item at a random prepare position
				pos := 0
				if cl := m.curLen(); cl > 0 {
					pos = rng.Intn(cl + 1)
				}
				c, l, r, err := tr.FindInsert(pos)
				if err != nil {
					t.Fatalf("trial %d step %d: FindInsert(%d): %v", trial, step, pos, err)
				}
				id := nextID
				nextID++
				item := Item{ID: id, Len: 1, CurState: StateInserted, OriginLeft: l, OriginRight: r}
				ic := tr.InsertAt(c, item)
				realIDs = append(realIDs, id)
				// Mirror in model: insert right after the pos-th visible
				// unit (before trailing invisible units).
				raw := 0
				if pos > 0 {
					raw = m.findVisible(pos-1) + 1
				}
				m = append(m[:raw], append(model{{id: id, curState: StateInserted}}, m[raw:]...)...)
				if got := tr.RawPos(ic); got != raw {
					t.Fatalf("trial %d step %d: inserted raw pos %d, want %d", trial, step, got, raw)
				}
			case op < 7: // delete (mutate) at a random prepare position
				cl := m.curLen()
				if cl == 0 {
					continue
				}
				pos := rng.Intn(cl)
				c, err := tr.FindVisible(pos)
				if err != nil {
					t.Fatalf("trial %d step %d: FindVisible(%d): %v", trial, step, pos, err)
				}
				raw := m.findVisible(pos)
				if got := c.UnitID(); got != m[raw].id {
					t.Fatalf("trial %d step %d: FindVisible(%d) unit %d, want %d", trial, step, pos, got, m[raw].id)
				}
				if got, want := tr.CountEndBefore(c), m.countEndBefore(raw); got != want {
					t.Fatalf("trial %d step %d: CountEndBefore = %d, want %d", trial, step, got, want)
				}
				tr.MutateUnit(c, func(it *Item) {
					it.CurState++
					it.EverDeleted = true
				})
				m[raw].curState++
				m[raw].everDeleted = true
			case op < 9: // retreat/advance a random known unit
				var id ID
				if len(realIDs) > 0 && rng.Intn(2) == 0 {
					id = realIDs[rng.Intn(len(realIDs))]
				} else if len(m) > 0 {
					id = m[rng.Intn(len(m))].id
				} else {
					continue
				}
				raw := m.rawPosOf(id)
				c, err := tr.CursorFor(id)
				if err != nil {
					t.Fatalf("trial %d step %d: CursorFor(%d): %v", trial, step, id, err)
				}
				// Random retreat or advance within legal state bounds.
				delta := int16(1)
				if rng.Intn(2) == 0 {
					delta = -1
				}
				if m[raw].curState+delta < -1 {
					continue
				}
				tr.MutateUnit(c, func(it *Item) { it.CurState += delta })
				m[raw].curState += delta
			default: // look up a random unit by ID
				if len(m) == 0 {
					continue
				}
				raw := rng.Intn(len(m))
				if got, err := tr.RawPosOf(m[raw].id); err != nil || got != raw {
					t.Fatalf("trial %d step %d: RawPosOf(%d) = %d, %v; want %d", trial, step, m[raw].id, got, err, raw)
				}
			}
			// Structure, sizes and the ID index after every operation.
			if err := tr.Check(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if tr.CurLen() != m.curLen() || tr.EndLen() != m.endLen() || tr.RawLen() != len(m) {
				t.Fatalf("trial %d step %d: lens (%d,%d,%d) vs model (%d,%d,%d)",
					trial, step, tr.RawLen(), tr.CurLen(), tr.EndLen(), len(m), m.curLen(), m.endLen())
			}
		}
		// Final sweep: every unit's raw position must agree.
		for i, u := range m {
			got, err := tr.RawPosOf(u.id)
			if err != nil {
				t.Fatalf("trial %d: RawPosOf(%d): %v", trial, u.id, err)
			}
			if got != i {
				t.Fatalf("trial %d: RawPosOf(%d) = %d, want %d", trial, u.id, got, i)
			}
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
		// A clone holds the same items under its own nodes and index:
		// growing it leaves the original as it was.
		cl := tr.Clone()
		if err := cl.Check(); err != nil {
			t.Fatalf("trial %d: clone: %v", trial, err)
		}
		var orig, copied []Item
		tr.Each(func(it Item) bool { orig = append(orig, it); return true })
		cl.Each(func(it Item) bool { copied = append(copied, it); return true })
		if !slices.Equal(orig, copied) {
			t.Fatalf("trial %d: clone holds %d items, not the original's %d", trial, len(copied), len(orig))
		}
		for k := 0; k < 40; k++ {
			c, _ := cl.FindRaw(rng.Intn(cl.RawLen() + 1))
			cl.InsertAt(c, Item{ID: nextID + ID(k), Len: 1, CurState: StateInserted})
		}
		if err := cl.Check(); err != nil {
			t.Fatalf("trial %d: clone after inserts: %v", trial, err)
		}
		if err := tr.Check(); err != nil || tr.RawLen() != len(m) {
			t.Fatalf("trial %d: original changed with its clone: %v", trial, err)
		}
	}
}

func TestItemOrderPreservedAcrossSplits(t *testing.T) {
	tr := New()
	// Append enough items to force several leaf and inner splits.
	n := 2000
	for i := 0; i < n; i++ {
		c, l, r, err := tr.FindInsert(i)
		if err != nil {
			t.Fatal(err)
		}
		tr.InsertAt(c, Item{ID: ID(i), Len: 1, CurState: StateInserted, OriginLeft: l, OriginRight: r})
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	want := ID(0)
	tr.Each(func(it Item) bool {
		if it.ID != want {
			t.Fatalf("item order broken: got %d, want %d", it.ID, want)
		}
		want++
		return true
	})
	if want != ID(n) {
		t.Fatalf("visited %d items, want %d", want, n)
	}
	// Random access checks.
	for _, i := range []int{0, 1, 777, 1999} {
		if got, _ := tr.RawPosOf(ID(i)); got != i {
			t.Errorf("RawPosOf(%d) = %d", i, got)
		}
	}
}

func BenchmarkTreeAppend(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, l, r, err := tr.FindInsert(i)
		if err != nil {
			b.Fatal(err)
		}
		tr.InsertAt(c, Item{ID: ID(i), Len: 1, CurState: StateInserted, OriginLeft: l, OriginRight: r})
	}
}

// BenchmarkAblationLinearModelInsert measures the flat-slice reference
// model on the same workload as BenchmarkTreeRandomInsert, quantifying
// the §3.4 design choice of an order-statistic tree over a linear scan.
func BenchmarkAblationLinearModelInsert(b *testing.B) {
	var m model
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pos := 0
		if cl := len(m); cl > 0 {
			pos = rng.Intn(cl + 1)
		}
		raw := 0
		if pos > 0 {
			raw = m.findVisible(pos-1) + 1
		}
		m = append(m[:raw], append(model{{id: ID(i), curState: StateInserted}}, m[raw:]...)...)
	}
}

func BenchmarkTreeRandomInsert(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pos := 0
		if cl := tr.CurLen(); cl > 0 {
			pos = rng.Intn(cl + 1)
		}
		c, l, r, err := tr.FindInsert(pos)
		if err != nil {
			b.Fatal(err)
		}
		tr.InsertAt(c, Item{ID: ID(i), Len: 1, CurState: StateInserted, OriginLeft: l, OriginRight: r})
	}
}

// BenchmarkTreeSplitHeavy is the tracker's workload inside a concurrent
// section: runs inserted into the middle of a placeholder, then partly
// retreated and advanced again, so nearly every operation splits a piece
// and finds it again by ID.
func BenchmarkTreeSplitHeavy(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	shift := func(it *Item) { it.CurState-- }
	unshift := func(it *Item) { it.CurState++ }
	var tr *Tree
	var runs []ID
	nextID := ID(0)
	for i := 0; i < b.N; i++ {
		if i%2000 == 0 {
			tr = New()
			tr.InitPlaceholder(1 << 30)
			runs, nextID = runs[:0], 0
		}
		// Insert a run of 8 somewhere in the first stretch of the document.
		c, l, r, err := tr.FindInsert(rng.Intn(10000))
		if err != nil {
			b.Fatal(err)
		}
		tr.InsertAt(c, Item{ID: nextID, Len: 8, CurState: StateInserted, OriginLeft: l, OriginRight: r})
		runs = append(runs, nextID)
		nextID += 8
		// Retreat two units inside an earlier run, then advance them.
		id := runs[rng.Intn(len(runs))] + 3
		for _, fn := range []func(*Item){shift, unshift} {
			c, err := tr.CursorFor(id)
			if err != nil {
				b.Fatal(err)
			}
			tr.MutateRange(c, min(2, int(c.Item().Len)-c.Offset()), fn)
		}
	}
}
