package egwalker

// Differential tests for the run-level Doc boundary: Apply, Events /
// EventsSince / EventsSinceSummary, Save and Load move whole runs; the
// per-unit loops they replaced live on below as the reference, and every
// delivery pattern must give the two identical patches, text,
// fingerprints, buffers and bytes.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"egwalker/internal/causal"
	"egwalker/internal/colenc"
	"egwalker/internal/oplog"
)

// refApply is Apply as it was before runs — every event copied through
// the delivery buffer, one ID lookup, one lookup per parent and one
// single-op append per event — with the rejected-event fix: the
// offender is dropped, what was admitted before it is merged, what
// follows it stays buffered. It is also Apply as it was before sections
// were kept between calls: every call plans its replay from a zero
// walker, the rebuilding replica every continuing one is held to.
func refApply(d *Doc, events []Event) ([]Patch, error) {
	d.walker = nil
	d.pending = append(d.pending, events...)
	emitFrom, chars := causal.LV(d.log.Len()), len(d.log.Content())
	var admitErr error
sweeps:
	for {
		progress := false
		var rest []Event
		for i, ev := range d.pending {
			if d.log.Graph.HasID(causal.RawID(ev.ID)) {
				progress = true // duplicate: drop
				continue
			}
			parents := make([]causal.LV, 0, len(ev.Parents))
			ok := true
			for _, p := range ev.Parents {
				lv, known := d.log.Graph.LVOf(causal.RawID(p))
				if !known {
					ok = false
					break
				}
				parents = append(parents, lv)
			}
			if !ok {
				rest = append(rest, ev)
				continue
			}
			op := oplog.Op{Kind: oplog.Delete, Pos: ev.Pos}
			if ev.Insert {
				op = oplog.Op{Kind: oplog.Insert, Pos: ev.Pos, Content: ev.Content}
			}
			if _, err := d.log.AddRemote(ev.ID.Agent, ev.ID.Seq, parents, []oplog.Op{op}); err != nil {
				admitErr = err
				d.pending = append(rest, d.pending[i+1:]...)
				break sweeps
			}
			progress = true
		}
		d.pending = rest
		if !progress || len(rest) == 0 {
			break
		}
	}
	patches, err := d.emit(emitFrom, chars, true)
	if admitErr != nil {
		return patches, admitErr
	}
	return patches, err
}

// refEventsIn is the per-unit export: one IDOf and one ParentsOf (a
// binary search each) and one parents slice per event.
func refEventsIn(d *Doc, spans ...causal.Span) []Event {
	var out []Event
	for _, sp := range spans {
		d.log.EachOp(sp, func(lv causal.LV, op oplog.Op) bool {
			ev := Event{ID: EventID(d.log.Graph.IDOf(lv)), Insert: op.Kind == oplog.Insert, Pos: op.Pos}
			if ev.Insert {
				ev.Content = op.Content
			}
			for _, p := range d.log.Graph.ParentsOf(lv) {
				ev.Parents = append(ev.Parents, EventID(d.log.Graph.IDOf(p)))
			}
			out = append(out, ev)
			return true
		})
	}
	return out
}

func refWire(events []Event) []colenc.Event {
	out := make([]colenc.Event, len(events))
	for i, ev := range events {
		out[i] = colenc.Event{ID: colenc.ID(ev.ID), Insert: ev.Insert, Pos: ev.Pos, Content: ev.Content}
		for _, p := range ev.Parents {
			out[i].Parents = append(out[i].Parents, colenc.ID(p))
		}
	}
	return out
}

// randomSession has three replicas type words, forward-delete, backspace
// and merge each other at random, and returns one that has merged
// everything, with the versions some replica was at along the way.
func randomSession(t *testing.T, rng *rand.Rand, steps int) (*Doc, []*Doc) {
	t.Helper()
	docs := []*Doc{NewDoc("ann"), NewDoc("bob"), NewDoc("cy")}
	var stages []*Doc
	words := []string{"run ", "length ", "é", "漢字", "x", "🙂 ok ", "graph"}
	for s := 0; s < steps; s++ {
		d := docs[rng.Intn(len(docs))]
		var err error
		switch k := rng.Intn(10); {
		case k < 5 || d.Len() == 0:
			err = d.Insert(rng.Intn(d.Len()+1), words[rng.Intn(len(words))])
		case k < 6:
			pos := rng.Intn(d.Len())
			err = d.Delete(pos, 1+rng.Intn(min(4, d.Len()-pos)))
		case k < 8: // backspace a few
			pos := rng.Intn(d.Len())
			for n := 1 + rng.Intn(4); n > 0 && pos >= 0 && err == nil; n-- {
				err = d.Delete(pos, 1)
				pos--
			}
		default:
			if src := docs[rng.Intn(len(docs))]; src != d {
				err = d.Merge(src)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(8) == 0 {
			f, err := d.Fork("stage")
			if err != nil {
				t.Fatal(err)
			}
			stages = append(stages, f)
		}
	}
	for _, src := range docs[1:] {
		if err := docs[0].Merge(src); err != nil {
			t.Fatal(err)
		}
	}
	return docs[0], stages
}

// cut splits events into consecutive batches at random points.
func cut(rng *rand.Rand, events []Event) [][]Event {
	var out [][]Event
	for len(events) > 0 {
		n := 1 + rng.Intn(len(events))
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(min(len(events), 12))
		}
		out = append(out, events[:n])
		events = events[n:]
	}
	return out
}

// refRunAt is runAt as it was before names were compared by identity and
// insert runs extended in place: names compared by value, every event
// offered to oplog.Run.Extend.
func refRunAt(events []Event, i int) (op oplog.Run, j int) {
	op = oplog.Unit(events[i].Insert, events[i].Pos)
	for j = i + 1; j < len(events); j++ {
		ev, prev := &events[j], &events[j-1]
		if ev.ID.Seq != prev.ID.Seq+1 || len(ev.Parents) != 1 || ev.Parents[0].Seq != prev.ID.Seq ||
			ev.ID.Agent != prev.ID.Agent || ev.Parents[0].Agent != prev.ID.Agent ||
			op.Extend(oplog.Unit(ev.Insert, ev.Pos)) == 0 {
			break
		}
	}
	return op, j
}

// TestRunAtSplitsAsByValue: runAt splits a batch into the runs refRunAt
// does, whether the names of its events share their bytes, as a decoded
// batch's do, or are equal copies (strings.Clone), and however the
// sequence numbers, parents, kinds and positions break the runs.
func TestRunAtSplitsAsByValue(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	names := []string{"ann", "bob", "an", "annx"}
	for round := 0; round < 2000; round++ {
		evs := make([]Event, 1+rng.Intn(24))
		for k := range evs {
			ev := Event{ID: EventID{Agent: names[rng.Intn(2)], Seq: rng.Intn(3)}, Insert: rng.Intn(3) > 0, Pos: rng.Intn(4), Content: 'x'}
			if k > 0 && rng.Intn(5) > 0 {
				// Mostly the next event of the same writer, one step along.
				prev := evs[k-1]
				dir := []int{-1, 0, 1}[rng.Intn(3)]
				if ev.Insert {
					dir = 1
				}
				ev.ID = EventID{Agent: prev.ID.Agent, Seq: prev.ID.Seq + 1}
				ev.Pos = max(0, prev.Pos+dir)
				if rng.Intn(10) == 0 {
					ev.ID.Agent = names[rng.Intn(len(names))]
				}
			}
			if k > 0 {
				ev.Parents = []EventID{evs[k-1].ID}
				switch rng.Intn(12) {
				case 0:
					ev.Parents[0].Agent = names[rng.Intn(len(names))]
				case 1:
					ev.Parents = append(ev.Parents, EventID{Agent: "cy"})
				}
			}
			evs[k] = ev
		}
		copied := slices.Clone(evs)
		for k := range copied {
			copied[k].ID.Agent = strings.Clone(copied[k].ID.Agent)
			copied[k].Parents = slices.Clone(copied[k].Parents)
			for p := range copied[k].Parents {
				copied[k].Parents[p].Agent = strings.Clone(copied[k].Parents[p].Agent)
			}
		}
		for i := 0; i < len(evs); {
			want, wantJ := refRunAt(evs, i)
			for _, b := range [][]Event{evs, copied} {
				if got, j := runAt(b, i); !reflect.DeepEqual(got, want) || j != wantJ {
					t.Fatalf("round %d, events %+v from %d: run %+v to %d, want %+v to %d", round, b, i, got, j, want, wantJ)
				}
			}
			i = wantJ
		}
	}
}

func TestApplyMatchesPerUnitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 40; round++ {
		final, _ := randomSession(t, rng, 30+rng.Intn(80))
		all := final.Events()
		if len(all) == 0 {
			continue
		}
		shuffled := append([]Event(nil), all...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		reversed := append([]Event(nil), all...)
		for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
			reversed[i], reversed[j] = reversed[j], reversed[i]
		}
		var dups []Event
		for _, ev := range all {
			dups = append(dups, ev)
			if rng.Intn(3) == 0 {
				dups = append(dups, all[rng.Intn(len(all))])
			}
			if rng.Intn(5) == 0 {
				dups = append(dups, ev)
			}
		}
		// Runs that straddle what is already known: some stretches first,
		// cut mid-run, then everything.
		var straddle [][]Event
		for i := 0; i < 3; i++ {
			a := rng.Intn(len(all))
			straddle = append(straddle, all[a:a+1+rng.Intn(len(all)-a)])
		}
		straddle = append(straddle, cut(rng, all)...)
		// A rejected event in the middle of a batch, then the history again.
		poison := Event{ID: EventID{Agent: "mallory", Seq: -1}, Insert: true, Content: 'x'}
		at := rng.Intn(len(all) + 1)
		poisoned := append(append(append([]Event(nil), all[:at]...), poison), all[at:]...)

		deliveries := map[string][][]Event{
			"causal":   cut(rng, all),
			"whole":    {all},
			"shuffled": cut(rng, shuffled),
			"reversed": cut(rng, reversed),
			"dups":     cut(rng, dups),
			"straddle": straddle,
			"poisoned": append(cut(rng, poisoned), all),
		}
		for name, batches := range deliveries {
			got, want := NewDoc("got"), NewDoc("want")
			for _, batch := range batches {
				applyBoth(t, got, want, batch)
			}
			if t.Failed() {
				t.Fatalf("round %d, delivery %s", round, name)
			}
			if got.Text() != final.Text() || got.PendingEvents() != 0 || got.NumEvents() != len(all) {
				t.Fatalf("round %d %s: ended with %d events, %d pending, text %q; want %d, 0, %q", round, name,
					got.NumEvents(), got.PendingEvents(), got.Text(), len(all), final.Text())
			}
		}
	}
}

// applyBoth gives batch to got through Apply and to want through the
// per-unit reference and holds them to the same outcome: error or not,
// patches, text, fingerprint, buffer, and the log itself — the same
// events in the same order in the same spans. Both sides' patches come
// from the same emit, so got's are also checked on their own: mirrored
// onto got's text from before the call, as an editor would, they must
// give its text after, and an insert's Content must hold its N runes.
// It returns the two errors.
func applyBoth(t *testing.T, got, want *Doc, batch []Event) (gotErr, wantErr error) {
	t.Helper()
	input := slices.Clone(batch)
	editor := got.Text()
	gotPatches, gotErr := got.Apply(batch)
	wantPatches, wantErr := refApply(want, batch)
	for _, p := range gotPatches {
		if p.Insert && utf8.RuneCountInString(p.Content) != p.N {
			t.Errorf("insert patch %+v: Content holds %d runes", p, utf8.RuneCountInString(p.Content))
		}
	}
	if editor = mirror(t, editor, gotPatches); editor != got.Text() {
		t.Errorf("patches mirrored give %q, Text() is %q", editor, got.Text())
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Errorf("Apply error %v, reference %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotPatches, wantPatches) {
		t.Errorf("patches differ\n got %v\nwant %v", gotPatches, wantPatches)
	}
	if got.Text() != want.Text() || got.Fingerprint() != want.Fingerprint() ||
		got.PendingEvents() != want.PendingEvents() || got.NumEvents() != want.NumEvents() {
		t.Errorf("state differs: %d/%d events, %d/%d pending, text %q / %q",
			got.NumEvents(), want.NumEvents(), got.PendingEvents(), want.PendingEvents(), got.Text(), want.Text())
	}
	if !reflect.DeepEqual(got.Events(), want.Events()) || got.log.SpanCount() != want.log.SpanCount() {
		t.Errorf("logs differ (%d vs %d spans)", got.log.SpanCount(), want.log.SpanCount())
	}
	if !reflect.DeepEqual(batch, input) {
		t.Errorf("Apply modified its argument")
	}
	return gotErr, wantErr
}

// FuzzApplyDelivery lets the fuzzer write both the editing session and
// the delivery: which stretch of the history arrives next, in which
// order, how often again, where a rejected event sits, and what the
// receiving replica types in between. Apply — which keeps the section a
// call ends inside for the next call — and the reference — per unit, and
// planning every call from a zero walker — must agree after every batch,
// and once the whole history has arrived both must hold what the
// session's replicas hold after merging the receiver's own edits.
func FuzzApplyDelivery(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("typing a few words, then more"), []byte{0, 9, 1, 3, 2, 8, 0, 40})
	f.Add([]byte{0, 3, 1, 7, 9, 2, 4, 4, 1, 8, 8, 0, 6, 3, 3, 5, 2, 2, 7, 1}, []byte{3, 0, 2, 30, 4, 1, 1, 200, 0, 5})
	f.Add(bytes.Repeat([]byte{1, 5, 2, 6, 0, 9, 3, 1, 7, 4}, 12), bytes.Repeat([]byte{4, 7, 1, 90, 2, 13, 3, 3}, 6))
	f.Add(bytes.Repeat([]byte{0, 1, 9, 1, 2, 4, 2, 5, 7, 0, 7, 1, 1, 0, 3}, 10), bytes.Repeat([]byte{0, 6, 6, 11, 0, 9, 7, 5, 3, 4, 6, 2, 0, 14}, 8))
	// Names that are equal but share no bytes, and agents met mid-batch.
	f.Add([]byte("two authors trade words, merge, trade more"), []byte{8, 5, 9, 3, 0, 7, 9, 2, 8, 40})
	f.Add([]byte{0, 3, 1, 1, 0, 9, 2, 7, 4, 0, 5, 2, 1, 2, 6, 2, 0, 3, 0, 7, 8, 1, 1, 1}, []byte{9, 0, 9, 4, 6, 2, 9, 1, 0, 50})
	f.Add(bytes.Repeat([]byte{2, 0, 5, 0, 7, 1, 1, 2, 9, 2, 3, 0}, 8), []byte{1, 6, 8, 3, 2, 4, 8, 9, 9, 5, 7, 2, 0, 30})
	f.Add(bytes.Repeat([]byte{1, 5, 2, 6, 0, 9, 3, 1, 7, 4}, 12), bytes.Repeat([]byte{8, 3, 9, 2, 6, 1, 0, 4, 3, 2}, 6))
	// Runs of two-, three- and four-byte characters typed on, typed into
	// by another replica, cut by deletes and backspaces, and delivered in
	// stretches that start and end inside them.
	f.Add(bytes.Repeat([]byte{0, 2, 255, 0, 3, 255, 1, 7, 0, 1, 2, 5, 1, 4, 9, 0, 5, 255, 1, 3, 3}, 10), []byte{0, 7, 1, 13, 0, 5, 2, 9, 6, 4, 3, 11, 0, 3, 4, 8, 0, 90})
	f.Add(bytes.Repeat([]byte{2, 3, 255, 2, 2, 255, 2, 2, 255, 0, 7, 2, 0, 3, 30, 0, 6, 12}, 12), []byte{6, 2, 0, 11, 1, 17, 7, 5, 0, 3, 9, 2, 0, 200})
	f.Fuzz(func(t *testing.T, session, delivery []byte) {
		if len(session) > 600 {
			session = session[:600]
		}
		if len(delivery) > 200 {
			delivery = delivery[:200]
		}
		docs := []*Doc{NewDoc("ann"), NewDoc("bob"), NewDoc("cy")}
		for i := 0; i+2 < len(session); i += 3 {
			d, arg := docs[int(session[i])%3], int(session[i+2])
			var err error
			switch k := session[i+1] % 8; {
			case k < 4 || d.Len() == 0:
				err = d.Insert(arg%(d.Len()+1), []string{"a", "run ", "é漢", "🙂 long word "}[k%4])
			case k == 4:
				pos := arg % d.Len()
				err = d.Delete(pos, 1+arg%min(3, d.Len()-pos))
			case k < 7: // backspace
				pos := arg % d.Len()
				for n := 1 + arg%3; n > 0 && pos >= 0 && err == nil; n-- {
					err = d.Delete(pos, 1)
					pos--
				}
			default:
				if src := docs[arg%3]; src != d {
					err = d.Merge(src)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, src := range docs[1:] {
			if err := docs[0].Merge(src); err != nil {
				t.Fatal(err)
			}
		}
		all := docs[0].Events()
		if len(all) == 0 {
			return
		}

		got, want := NewDoc("me"), NewDoc("me")
		next := 0 // how much of the history has been sent in order
		for i := 0; i+1 < len(delivery); i += 2 {
			n := 1 + int(delivery[i+1])%len(all)
			var batch []Event
			switch delivery[i] % 10 {
			case 6: // the receiver types
				pos, word := n%(got.Len()+1), []string{"k", "me ", "é漢"}[n%3]
				if got.Insert(pos, word) != nil || want.Insert(pos, word) != nil {
					t.Fatal("local insert failed")
				}
				continue
			case 7: // the receiver deletes
				if got.Len() == 0 {
					continue
				}
				pos := n % got.Len()
				count := 1 + n%min(3, got.Len()-pos)
				if got.Delete(pos, count) != nil || want.Delete(pos, count) != nil {
					t.Fatal("local delete failed")
				}
				continue
			case 0: // the next stretch, in order
				batch = all[next:min(next+n, len(all))]
				next += len(batch)
			case 1: // a stretch from anywhere: known, new or straddling
				a := int(delivery[i+1]) * 7 % len(all)
				batch = all[a:min(a+n, len(all))]
			case 2: // a stretch ahead of its parents, backwards
				a := min(next+n, len(all)-1)
				for j := min(a+n, len(all)) - 1; j >= a; j-- {
					batch = append(batch, all[j])
				}
			case 3: // every other event of the next stretch
				for j := next; j < min(next+n, len(all)); j += 2 {
					batch = append(batch, all[j])
				}
			case 4: // a rejected event inside the next stretch
				batch = append(batch, all[next:min(next+n/2, len(all))]...)
				batch = append(batch, Event{ID: EventID{Agent: "ann", Seq: -1 - n}, Content: 'x', Insert: n%2 == 0})
				batch = append(batch, all[min(next+n/2, len(all)):min(next+n, len(all))]...)
			case 8: // the next stretch, its names copies that share no bytes
				for _, ev := range all[next:min(next+n, len(all))] {
					ev.ID.Agent = strings.Clone(ev.ID.Agent)
					ev.Parents = slices.Clone(ev.Parents)
					for j := range ev.Parents {
						ev.Parents[j].Agent = strings.Clone(ev.Parents[j].Agent)
					}
					batch = append(batch, ev)
				}
				next += len(batch)
			case 9: // the next stretch, then an agent the receiver has never met
				batch = append(batch, all[next:min(next+n, len(all))]...)
				next += len(batch)
				var parents []EventID
				if next > 0 {
					parents = []EventID{all[next-1].ID}
				}
				// A run typed forwards, then one at the front, then the first
				// event again: the agent's first run goes in by name, its
				// second by number, and the repeat is known by number.
				agent := fmt.Sprintf("new%d", i)
				for seq, pos := range []int{0, 1, 0} {
					batch = append(batch, Event{ID: EventID{Agent: agent, Seq: seq}, Parents: parents, Insert: true, Pos: pos, Content: 'n'})
					parents = []EventID{{Agent: agent, Seq: seq}}
				}
				batch = append(batch, batch[len(batch)-3])
			default: // the stretch twice over
				batch = append(batch, all[next:min(next+n, len(all))]...)
				batch = append(batch, batch...)
			}
			applyBoth(t, got, want, batch)
		}
		applyBoth(t, got, want, all)
		if err := docs[0].Merge(got); err != nil {
			t.Fatal(err)
		}
		if got.Text() != docs[0].Text() || got.PendingEvents() != 0 || got.NumEvents() != docs[0].NumEvents() {
			t.Fatalf("ended with %d events, %d pending, text %q; want %d, 0, %q",
				got.NumEvents(), got.PendingEvents(), got.Text(), docs[0].NumEvents(), docs[0].Text())
		}
	})
}

// TestApplyAfterRejectedEvent: a rejected event used to leave the log
// advanced past the text and itself in the buffer, failing every later
// Apply.
func TestApplyAfterRejectedEvent(t *testing.T) {
	src := NewDoc("ann")
	if err := src.Insert(0, "hi"); err != nil {
		t.Fatal(err)
	}
	if err := src.Insert(2, "!"); err != nil {
		t.Fatal(err)
	}
	evs := src.Events()
	poison := Event{ID: EventID{Agent: "ann", Seq: -1}, Insert: true, Content: 'x'}
	batch := []Event{evs[0], evs[1], poison, evs[2]}

	d := NewDoc("bob")
	patches, err := d.Apply(batch)
	if err == nil {
		t.Fatal("negative sequence number accepted")
	}
	if d.NumEvents() != 2 || d.Text() != "hi" {
		t.Fatalf("after the rejected event: %d events, text %q; want 2, %q", d.NumEvents(), d.Text(), "hi")
	}
	if want := []Patch{{Insert: true, Pos: 0, N: 2, Content: "hi"}}; !reflect.DeepEqual(patches, want) {
		t.Fatalf("patches %v, want %v", patches, want)
	}
	if d.PendingEvents() != 1 {
		t.Fatalf("%d events buffered, want 1 (the one after the rejected event)", d.PendingEvents())
	}
	// The buffer is not poisoned: the next Apply succeeds and drains it.
	if _, err := d.Apply(nil); err != nil {
		t.Fatalf("Apply after a rejected event: %v", err)
	}
	if d.Text() != "hi!" || d.PendingEvents() != 0 || d.NumEvents() != 3 {
		t.Fatalf("after the next Apply: %d events, %d pending, text %q", d.NumEvents(), d.PendingEvents(), d.Text())
	}
	if d.Fingerprint() != src.Fingerprint() {
		t.Fatal("replicas differ")
	}
}

func TestEventsMatchPerUnitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for round := 0; round < 25; round++ {
		final, stages := randomSession(t, rng, 40+rng.Intn(80))
		full := causal.Span{End: causal.LV(final.log.Len())}
		all := final.Events()
		if want := refEventsIn(final, full); !reflect.DeepEqual(all, want) && len(want) > 0 {
			t.Fatalf("round %d: Events differs from the per-unit export", round)
		}
		for si, st := range stages {
			got, err := final.EventsSince(st.Version())
			if err != nil {
				t.Fatal(err)
			}
			f, err := final.resolveVersion(st.Version(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var lvs causal.Frontier
			for _, r := range f {
				lvs = append(lvs, r.LV)
			}
			only, _ := final.log.Graph.Diff(final.log.Frontier(), lvs)
			if want := refEventsIn(final, only...); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d stage %d: EventsSince differs from the per-unit export (%d vs %d events)", round, si, len(got), len(want))
			}
			// The summary diff sends exactly what the stage lacks.
			missing, err := final.EventsSinceSummary(st.Summary())
			if err != nil {
				t.Fatal(err)
			}
			if len(missing) != final.NumEvents()-st.NumEvents() {
				t.Fatalf("round %d stage %d: summary diff has %d events, want %d", round, si, len(missing), final.NumEvents()-st.NumEvents())
			}
			idx := map[EventID]Event{}
			for _, ev := range all {
				idx[ev.ID] = ev
			}
			for _, ev := range missing {
				if st.Knows(ev.ID) || !reflect.DeepEqual(ev, idx[ev.ID]) {
					t.Fatalf("round %d stage %d: summary diff event %v wrong or already held", round, si, ev.ID)
				}
			}
			if _, err := st.Apply(missing); err != nil || st.Fingerprint() != final.Fingerprint() || st.PendingEvents() != 0 {
				t.Fatalf("round %d stage %d: stage did not converge on the summary diff: %v", round, si, err)
			}
		}

		// Save writes the bytes the per-unit encoder writes for the
		// per-unit export; Load rebuilds the same log.
		for _, cached := range []bool{false, true} {
			var buf bytes.Buffer
			if err := final.Save(&buf, SaveOptions{CacheFinalDoc: cached}); err != nil {
				t.Fatal(err)
			}
			var want []byte
			var err error
			if cached {
				want, err = colenc.EncodeRunsDoc(colenc.Runs(refWire(refEventsIn(final, full))), final.Text(), colenc.Options{})
			} else {
				want, err = colenc.Encode(refWire(refEventsIn(final, full)), colenc.Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("round %d: Save (cached %v) wrote %d bytes, the per-unit path %d", round, cached, buf.Len(), len(want))
			}
			loaded, err := Load(bytes.NewReader(buf.Bytes()), "loader")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(loaded.Events(), all) || loaded.log.SpanCount() != final.log.SpanCount() ||
				loaded.Text() != final.Text() || loaded.Fingerprint() != final.Fingerprint() {
				t.Fatalf("round %d: loaded document differs", round)
			}
		}
		// The batch codec at the public edge.
		data, err := MarshalEventsCompact(all)
		if err != nil {
			t.Fatal(err)
		}
		want, err := colenc.Encode(refWire(all), colenc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("round %d: MarshalEventsCompact differs from the per-unit path", round)
		}
		back, err := UnmarshalEventsAuto(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, all) && len(all) > 0 {
			t.Fatalf("round %d: compact round trip changed the events", round)
		}
	}
}

// TestExportedParentsDoNotAlias: default parents are cut from one shared
// array; each event owns exactly its element.
func TestExportedParentsDoNotAlias(t *testing.T) {
	d := NewDoc("a")
	if err := d.Insert(0, "abcd"); err != nil {
		t.Fatal(err)
	}
	evs := d.Events()
	_ = append(evs[1].Parents, EventID{"x", 9})
	evs[1].Parents[0].Seq = 77
	if evs[2].Parents[0] != (EventID{"a", 1}) || evs[1].ID != (EventID{"a", 1}) || evs[0].ID != (EventID{"a", 0}) {
		t.Fatalf("parents alias: %+v", evs)
	}
	if again := d.Events(); again[1].Parents[0] != (EventID{"a", 0}) {
		t.Fatal("an exported event's parents alias the document")
	}
}

// mirror applies patches to text the way an editor following a Doc would.
func mirror(t *testing.T, text string, patches []Patch) string {
	t.Helper()
	rs := []rune(text)
	for _, p := range patches {
		if p.Pos < 0 || p.Pos > len(rs) || (!p.Insert && p.Pos+p.N > len(rs)) {
			t.Fatalf("patch %+v does not fit a text of %d runes", p, len(rs))
		}
		if p.Insert {
			rs = slices.Insert(rs, p.Pos, []rune(p.Content)...)
		} else {
			rs = slices.Delete(rs, p.Pos, p.Pos+p.N)
		}
	}
	return string(rs)
}

// TestApplyReturnsAppliedPatchesWithTransformError: a malformed event —
// its position invalid in its parent version — fails the merge part-way,
// after the operations before it were applied to the text. Apply used to
// return no patches with the error, so an editor mirroring patches fell
// behind Text() without knowing. The patches that were applied come back
// with the error, on the transforming path and on the linear one.
func TestApplyReturnsAppliedPatchesWithTransformError(t *testing.T) {
	ann := func(seq int) EventID { return EventID{Agent: "ann", Seq: seq} }
	hi := []Event{
		{ID: ann(0), Insert: true, Pos: 0, Content: 'h'},
		{ID: ann(1), Parents: []EventID{ann(0)}, Insert: true, Pos: 1, Content: 'i'},
	}
	cases := map[string][]Event{
		// cy types concurrently with ann, then mallory inserts at 99 in a
		// version that is two runes long.
		"concurrent": append(slices.Clone(hi),
			Event{ID: EventID{Agent: "cy", Seq: 0}, Insert: true, Pos: 0, Content: 'c'},
			Event{ID: EventID{Agent: "mallory", Seq: 0}, Parents: []EventID{ann(1)}, Insert: true, Pos: 99, Content: 'x'}),
		// The same on a single branch: the linear fast path.
		"linear": append(slices.Clone(hi),
			Event{ID: ann(2), Parents: []EventID{ann(1)}, Insert: true, Pos: 99, Content: 'x'}),
	}
	for name, batch := range cases {
		d := NewDoc("bob")
		patches, err := d.Apply(batch)
		if err == nil {
			t.Fatalf("%s: malformed event accepted", name)
		}
		if d.Text() == "" {
			t.Fatalf("%s: nothing was applied before the malformed event; the test wants a part-way failure", name)
		}
		if got := mirror(t, "", patches); got != d.Text() {
			t.Errorf("%s: patches returned with the error give %q, Text() is %q", name, got, d.Text())
		}
		if st := d.ReplayStats(); st.RetainedItems != 0 {
			t.Errorf("%s: a failed merge kept its section (%d items)", name, st.RetainedItems)
		}
	}
}
