package egwalker

// Golden tests for the order of concurrent inserts at one position. The
// other merge tests hold replicas to agreement with each other and with a
// reference that runs the same scan; these hold Apply to texts worked out
// by hand from the YATA rules (§3.3), so that a change to the order that
// every replica would make alike still fails.

import "testing"

// TestConcurrentInsertOrder: every case starts from "xy", typed by "base",
// and its events are delivered one Apply at a time to a new replica in
// each of the orders listed; the text must be the one worked out by hand.
//
// The rules: an insert's origins are the characters left and right of it
// when it was typed. Concurrent inserts with the same two origins go in
// agent order, the lower name first, and a run goes in whole. An insert
// whose right origin lies between the other's origins — it was typed
// against a character the other had not seen — stays left of that
// character, and the other is ordered against that character.
func TestConcurrentInsertOrder(t *testing.T) {
	base := []Event{
		{ID: EventID{Agent: "base", Seq: 0}, Insert: true, Pos: 0, Content: 'x'},
		{ID: EventID{Agent: "base", Seq: 1}, Parents: []EventID{{Agent: "base", Seq: 0}}, Insert: true, Pos: 1, Content: 'y'},
	}
	onBase := []EventID{base[1].ID}
	ins := func(agent string, seq int, parents []EventID, pos int, c rune) Event {
		return Event{ID: EventID{Agent: agent, Seq: seq}, Parents: parents, Insert: true, Pos: pos, Content: c}
	}
	a0 := ins("a", 0, onBase, 1, 'a')
	b0 := ins("b", 0, onBase, 1, 'b')
	// The same, as runs of two.
	a1 := ins("a", 1, []EventID{a0.ID}, 2, 'a')
	b1 := ins("b", 1, []EventID{b0.ID}, 2, 'b')
	// "c" types between x and y; "b", having seen it, types between x
	// and c; "a", having seen neither, types between x and y.
	c0 := ins("c", 0, onBase, 1, 'c')
	bc := ins("b", 0, []EventID{c0.ID}, 1, 'b')
	cases := []struct {
		name   string
		orders [][]Event
		want   string
	}{{
		// a and b have the same origins, x and y: a, the lower name, first.
		name:   "same origins",
		orders: [][]Event{{a0, b0}, {b0, a0}},
		want:   "xaby",
	}, {
		// As above, and each run goes in whole: "aa" then "bb", never
		// interleaved.
		name:   "same origins, runs",
		orders: [][]Event{{a0, a1, b0, b1}, {b0, b1, a0, a1}, {a0, b0, a1, b1}, {b0, a0, b1, a1}},
		want:   "xaabby",
	}, {
		// a and c have the same origins, x and y: a goes before c. b's
		// origins are x and c, so b sits right before c, and a, which goes
		// before c, goes before b too: a's right origin y lies right of
		// c, while b's, c, lies between a's origins.
		name:   "right origin inside the other's origins",
		orders: [][]Event{{c0, bc, a0}, {a0, c0, bc}, {c0, a0, bc}},
		want:   "xabcy",
	}}
	for _, tc := range cases {
		for _, order := range tc.orders {
			d := NewDoc("reader")
			for _, ev := range append(append([]Event(nil), base...), order...) {
				if _, err := d.Apply([]Event{ev}); err != nil {
					t.Fatal(err)
				}
			}
			if got := d.Text(); got != tc.want {
				t.Errorf("%s, delivered as %v: %q, want %q", tc.name, ids(order), got, tc.want)
			}
		}
	}
}

// ids lists the events' IDs, for messages.
func ids(evs []Event) []EventID {
	out := make([]EventID, len(evs))
	for i, ev := range evs {
		out[i] = ev.ID
	}
	return out
}
