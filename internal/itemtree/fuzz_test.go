package itemtree

// FuzzItemSplit drives real-item and placeholder splitting from a fuzzed
// byte script against a flat per-unit model: every insert, range
// mutation, split, growth and ID lookup the tracker performs is exercised here
// in isolation, and the tree must agree with the model unit for unit
// (IDs, states, aggregate counts) while Check() holds all structural
// invariants (piece lengths, the ID index, subtree aggregates).

import (
	"testing"
)

// The flat reference sequence reuses modelUnit from itemtree_test.go.

func FuzzItemSplit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{40, 0, 5, 3, 1, 2, 7, 9, 2, 0, 4, 11, 3, 8})
	f.Add([]byte{0, 0, 9, 1, 0, 1, 3, 2, 5, 4, 1, 1, 2, 2, 8, 8, 0, 3, 12, 5})
	f.Add([]byte{100, 2, 50, 6, 1, 30, 4, 0, 70, 2, 2, 10, 9, 3, 3, 1, 1, 0, 0, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		tr := New()
		var model []modelUnit
		next := func(i *int) int {
			if *i >= len(script) {
				return 0
			}
			b := int(script[*i])
			*i++
			return b
		}

		// Optional placeholder prologue: the first byte sizes the base
		// document, like a tracker seeded mid-graph.
		i := 0
		if ph := next(&i) % 128; ph > 0 {
			tr.InitPlaceholder(ph)
			for u := 0; u < ph; u++ {
				model = append(model, modelUnit{id: PlaceholderID(u), curState: StateInserted})
			}
		}
		nextID := ID(0)
		tail := ID(-1) // the unit before nextID, when there is one

		for i < len(script) {
			switch next(&i) % 5 {
			case 0, 1: // insert a real run at a raw boundary
				pos := 0
				if len(model) > 0 {
					pos = next(&i) % (len(model) + 1)
				}
				n := 1 + next(&i)%8
				state := int16(next(&i)%3) - 1 // NYI, Ins, or Del 1
				c, err := tr.FindRaw(pos)
				if err != nil {
					t.Fatalf("FindRaw(%d): %v", pos, err)
				}
				item := Item{
					ID:          nextID,
					Len:         int32(n),
					CurState:    state,
					EverDeleted: state > 0,
					OriginLeft:  OriginStart,
					OriginRight: OriginEnd,
				}
				tr.InsertAt(c, item)
				ins := make([]modelUnit, n)
				for k := range ins {
					ins[k] = modelUnit{id: nextID + ID(k), curState: state, everDeleted: state > 0}
				}
				model = append(model[:pos], append(ins, model[pos:]...)...)
				nextID += ID(n)
				tail = nextID - 1
				if gap := next(&i) % 3; gap > 0 { // leave occasional ID gaps, like delete events do
					nextID += ID(gap)
					tail = -1
				}
			case 2: // mutate a unit range (split-on-demand path)
				if len(model) == 0 {
					continue
				}
				pos := next(&i) % len(model)
				c, err := tr.FindRaw(pos)
				if err != nil {
					t.Fatalf("FindRaw(%d): %v", pos, err)
				}
				maxN := int(c.Item().Len) - c.Offset()
				n := 1 + next(&i)%maxN
				delta := int16(1)
				if next(&i)%2 == 0 && model[pos].curState > StateNotInsertedYet {
					delta = -1
				}
				tr.MutateRange(c, n, func(it *Item) {
					it.CurState += delta
					if it.CurState > 0 {
						it.EverDeleted = true
					}
				})
				for k := pos; k < pos+n; k++ {
					model[k].curState += delta
					if model[k].curState > 0 {
						model[k].everDeleted = true
					}
				}
			case 4: // grow the piece the newest unit ends by a few units
				if tail < 0 {
					continue
				}
				c, err := tr.CursorFor(tail)
				if err != nil {
					t.Fatalf("CursorFor(%d): %v", tail, err)
				}
				pos, n := tr.RawPos(c), 1+next(&i)%8
				if c.Offset() != int(c.Item().Len)-1 {
					t.Fatalf("unit %d, the newest, does not end its piece", tail)
				}
				if got := tr.Extend(c, n); got.UnitID() != nextID || tr.RawPos(got) != pos+1 {
					t.Fatalf("Extend returned a cursor at unit %d, raw %d; want %d, %d", got.UnitID(), tr.RawPos(got), nextID, pos+1)
				}
				ins := make([]modelUnit, n)
				for k := range ins {
					ins[k] = modelUnit{id: nextID + ID(k), curState: model[pos].curState, everDeleted: model[pos].everDeleted}
				}
				model = append(model[:pos+1], append(ins, model[pos+1:]...)...)
				nextID += ID(n)
				tail = nextID - 1
			case 3: // random ID lookup must land on the right unit
				if len(model) == 0 {
					continue
				}
				pos := next(&i) % len(model)
				c, err := tr.CursorFor(model[pos].id)
				if err != nil {
					t.Fatalf("CursorFor(%d): %v", model[pos].id, err)
				}
				if got := c.UnitID(); got != model[pos].id {
					t.Fatalf("CursorFor(%d) landed on unit %d", model[pos].id, got)
				}
				if got := tr.RawPos(c); got != pos {
					t.Fatalf("RawPos of unit %d = %d, want %d", model[pos].id, got, pos)
				}
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("invariants broken: %v", err)
			}
		}

		// Full walk: the tree's units must equal the model exactly.
		if tr.RawLen() != len(model) {
			t.Fatalf("RawLen = %d, model has %d units", tr.RawLen(), len(model))
		}
		wantCur, wantEnd := 0, 0
		for _, u := range model {
			if u.curState == StateInserted {
				wantCur++
			}
			if !u.everDeleted {
				wantEnd++
			}
		}
		if tr.CurLen() != wantCur || tr.EndLen() != wantEnd {
			t.Fatalf("aggregates (%d,%d), model (%d,%d)", tr.CurLen(), tr.EndLen(), wantCur, wantEnd)
		}
		at := 0
		tr.Each(func(it Item) bool {
			for k := 0; k < int(it.Len); k++ {
				u := model[at]
				if got := AdvanceID(it.ID, k); got != u.id {
					t.Fatalf("unit %d: tree ID %d, model ID %d", at, got, u.id)
				}
				if it.CurState != u.curState || it.EverDeleted != u.everDeleted {
					t.Fatalf("unit %d (id %d): tree state (%d,%v), model (%d,%v)",
						at, u.id, it.CurState, it.EverDeleted, u.curState, u.everDeleted)
				}
				at++
			}
			return true
		})
		if at != len(model) {
			t.Fatalf("walked %d units, model has %d", at, len(model))
		}
	})
}
