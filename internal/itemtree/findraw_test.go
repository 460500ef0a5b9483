package itemtree

import (
	"math/rand"
	"testing"
)

func TestFindRawBasics(t *testing.T) {
	tr := New()
	tr.InitPlaceholder(5)
	// Raw position inside the placeholder piece.
	c, err := tr.FindRaw(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.UnitID() != PlaceholderID(3) || c.Offset() != 3 {
		t.Fatalf("cursor at unit %d off %d", c.UnitID(), c.Offset())
	}
	// End boundary.
	end, err := tr.FindRaw(5)
	if err != nil {
		t.Fatal(err)
	}
	if end.Valid() {
		t.Fatal("end cursor should be past-the-end")
	}
	if _, err := tr.FindRaw(6); err == nil {
		t.Fatal("out-of-range raw index accepted")
	}
	if _, err := tr.FindRaw(-1); err == nil {
		t.Fatal("negative raw index accepted")
	}
}

func TestFindRawAfterMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	tr := New()
	tr.InitPlaceholder(30)
	// Interleave inserts and placeholder materialisations, then verify
	// FindRaw agrees with RawPosOf for every unit.
	var ids []ID
	for u := 0; u < 30; u++ {
		ids = append(ids, PlaceholderID(u))
	}
	for i := 0; i < 60; i++ {
		if rng.Intn(2) == 0 {
			pos := rng.Intn(tr.CurLen() + 1)
			c, l, r, err := tr.FindInsert(pos)
			if err != nil {
				t.Fatal(err)
			}
			id := ID(1000 + i)
			tr.InsertAt(c, Item{ID: id, Len: 1, CurState: StateInserted, OriginLeft: l, OriginRight: r})
			ids = append(ids, id)
		} else {
			pos := rng.Intn(tr.CurLen())
			c, err := tr.FindVisible(pos)
			if err != nil {
				t.Fatal(err)
			}
			tr.MutateUnit(c, func(it *Item) {
				it.CurState = 1
				it.EverDeleted = true
			})
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		want, err := tr.RawPosOf(id)
		if err != nil {
			t.Fatalf("RawPosOf(%d): %v", id, err)
		}
		c, err := tr.FindRaw(want)
		if err != nil {
			t.Fatalf("FindRaw(%d): %v", want, err)
		}
		if got := c.UnitID(); got != id {
			t.Fatalf("FindRaw(%d) = unit %d, want %d", want, got, id)
		}
	}
}

func TestCursorIterationCoversTree(t *testing.T) {
	tr := New()
	tr.InitPlaceholder(10)
	// Split the placeholder a few times.
	for _, pos := range []int{2, 5, 7} {
		c, err := tr.FindVisible(pos)
		if err != nil {
			t.Fatal(err)
		}
		tr.MutateUnit(c, func(it *Item) {
			it.CurState = 1
			it.EverDeleted = true
		})
	}
	// Walk with NextItem from Start; total raw units must match.
	c := tr.Start()
	total := 0
	for c.Valid() {
		total += int(c.Item().Len)
		if !c.NextItem() {
			break
		}
	}
	if total != tr.RawLen() {
		t.Fatalf("iteration covered %d units, want %d", total, tr.RawLen())
	}
}

func TestCursorForErrors(t *testing.T) {
	tr := New()
	tr.InitPlaceholder(3)
	if _, err := tr.CursorFor(42); err == nil {
		t.Error("unknown real ID resolved")
	}
	if _, err := tr.CursorFor(PlaceholderID(99)); err == nil {
		t.Error("out-of-range placeholder unit resolved")
	}
	if _, err := tr.RawPosOf(123456); err == nil {
		t.Error("RawPosOf unknown ID succeeded")
	}
}

func TestMutateRealItemNoSplit(t *testing.T) {
	tr := New()
	c, l, r, err := tr.FindInsert(0)
	if err != nil {
		t.Fatal(err)
	}
	ic := tr.InsertAt(c, Item{ID: 7, Len: 1, CurState: StateInserted, OriginLeft: l, OriginRight: r})
	mc := tr.MutateUnit(ic, func(it *Item) { it.CurState = StateNotInsertedYet })
	if mc.Item().ID != 7 || mc.Item().CurState != StateNotInsertedYet {
		t.Fatalf("mutation lost: %+v", mc.Item())
	}
	if tr.CurLen() != 0 || tr.EndLen() != 1 {
		t.Fatalf("lens = %d, %d", tr.CurLen(), tr.EndLen())
	}
}
