package colenc

import (
	"bytes"
	"iter"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"egwalker/internal/causal"
	"egwalker/internal/oplog"
	"egwalker/internal/rope"
)

// randomBatch builds a batch with every shape the columns distinguish:
// several agents taking over from each other mid-pattern, typing that
// continues across an author change, deletes that change direction,
// merges, roots mid-batch, parents far behind the back-reference
// window and parents outside the batch.
func randomBatch(rng *rand.Rand, n int) []Event {
	agents := []string{"ann", "bob", "cy"}
	seqs := map[string]int{"cy": 40} // cy's history starts outside the batch
	var evs []Event
	pos := 20
	for len(evs) < n {
		agent := agents[rng.Intn(len(agents))]
		burst := 1 + rng.Intn(6)
		kind := rng.Intn(3)
		if rng.Intn(3) == 0 {
			pos = 10 + rng.Intn(60)
		}
		for i := 0; i < burst; i++ {
			ev := Event{ID: ID{Agent: agent, Seq: seqs[agent]}}
			seqs[agent]++
			switch {
			case len(evs) == 0 || rng.Intn(40) == 0:
				// root, or a root event mid-batch
			case i > 0 || rng.Intn(2) == 0:
				ev.Parents = []ID{evs[len(evs)-1].ID}
			case rng.Intn(2) == 0: // a merge, maybe reaching far back
				a := evs[rng.Intn(len(evs))].ID
				b := evs[len(evs)-1-rng.Intn(min(len(evs), 5))].ID
				ev.Parents = []ID{a}
				if b != a {
					ev.Parents = append(ev.Parents, b)
				}
			default: // a parent the batch does not hold
				ev.Parents = []ID{{Agent: "zed", Seq: rng.Intn(9)}}
			}
			switch kind {
			case 0:
				ev.Insert, ev.Pos, ev.Content = true, pos, []rune("aé漢🙂z")[rng.Intn(5)]
				pos++
			case 1:
				ev.Pos = pos
			default:
				ev.Pos = pos
				if pos > 0 {
					pos--
				}
			}
			evs = append(evs, ev)
		}
	}
	return evs
}

// recut splits runs at random points, as a sender that groups less
// eagerly than Runs would produce them.
func recut(rng *rand.Rand, runs []Run) []Run {
	var out []Run
	for _, r := range runs {
		for r.Len > 1 && rng.Intn(2) == 0 {
			k := 1 + rng.Intn(r.Len-1)
			head := r
			head.Len = k
			if r.Kind == oplog.Insert {
				head.Content = r.Content[:k]
			}
			out = append(out, head)
			r.Parents = []ID{head.last()}
			r.ID.Seq += k
			r.Run = r.Run.From(k)
		}
		out = append(out, r)
	}
	return out
}

// collect copies runs out of an iterator whose runs are only valid for
// one turn.
func collect(seq iter.Seq[Run]) []Run {
	var out []Run
	for r := range seq {
		r.Parents = slices.Clone(r.Parents)
		r.Content = slices.Clone(r.Content)
		out = append(out, r)
	}
	return out
}

// checkAgainstReference holds the run codec to the per-unit one on a
// batch: the same bytes out of Encode and of EncodeRuns however the runs
// are cut, and the same events back.
func checkAgainstReference(t *testing.T, rng *rand.Rand, evs []Event) {
	t.Helper()
	for _, opts := range []Options{{}, {Compress: true}} {
		for _, withDoc := range []bool{false, true} {
			want, err := refEncode(evs, "the doc", withDoc, opts)
			if err != nil {
				t.Fatalf("reference encode: %v", err)
			}
			var got []byte
			if withDoc {
				got, err = EncodeRunsDoc(Runs(evs), "the doc", opts)
			} else {
				got, err = Encode(evs, opts)
			}
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Encode (%+v, doc %v) differs from the per-unit encoder: %d vs %d bytes", opts, withDoc, len(got), len(want))
			}
			dec, err := DecodeRuns(got, 1<<20)
			if err != nil {
				t.Fatalf("DecodeRuns: %v", err)
			}
			if dec.HasDoc != withDoc || (withDoc && dec.Doc != "the doc") || dec.NumEvents != len(evs) {
				t.Fatalf("DecodeRuns: doc %v %q, %d events", dec.HasDoc, dec.Doc, dec.NumEvents)
			}
			ref, err := refDecodeLimit(got, 1<<20)
			if err != nil {
				t.Fatalf("reference decode: %v", err)
			}
			if exp := expand(dec.NumEvents, slices.Values(dec.Runs)); !reflect.DeepEqual(exp, ref.Events) && len(evs) > 0 {
				t.Fatal("expanded runs differ from the per-unit decode")
			}
			if !reflect.DeepEqual(ref.Events, evs) && len(evs) > 0 {
				t.Fatal("round trip changed the events")
			}
			for _, runs := range [][]Run{dec.Runs, recut(rng, dec.Runs), recut(rng, collect(Runs(evs)))} {
				re, err := encodeRuns(slices.Values(runs), "the doc", withDoc, opts)
				if err != nil {
					t.Fatalf("EncodeRuns: %v", err)
				}
				if !bytes.Equal(re, want) {
					t.Fatalf("EncodeRuns of %d runs differs from the per-unit encoder", len(runs))
				}
			}
		}
	}
}

func TestRunCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkAgainstReference(t, rng, nil)
	checkAgainstReference(t, rng, typed("alice", "hello, wörld 🙂"))
	for i := 0; i < 200; i++ {
		checkAgainstReference(t, rng, randomBatch(rng, 1+rng.Intn(150)))
	}
}

// TestRunsAreMaximal: what DecodeRuns and Runs hand over is cut only
// where a column is: a linear typing history is one run.
func TestRunsAreMaximal(t *testing.T) {
	evs := typed("alice", "one long run of typing")
	if runs := collect(Runs(evs)); len(runs) != 1 || runs[0].Len != len(evs) || string(runs[0].Content) != "one long run of typing" {
		t.Fatalf("Runs cut a linear typing batch into %d runs", len(runs))
	}
	data, err := Encode(evs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRuns(data, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Runs) != 1 || dec.Runs[0].Len != len(evs) {
		t.Fatalf("DecodeRuns cut a linear typing frame into %d runs", len(dec.Runs))
	}
}

// TestEncodeRejectsBackspaceBelowZero: a backspace run whose positions
// would pass zero is the per-unit encoder's "negative position", named
// at the event that goes negative.
func TestEncodeRejectsBackspaceBelowZero(t *testing.T) {
	r := Run{ID: ID{"a", 10}, Run: oplog.Run{Kind: oplog.Delete, Pos: 1, Dir: -1, Len: 3}}
	_, err := EncodeRuns(slices.Values([]Run{r}), Options{})
	if err == nil || err.Error() != "colenc: negative position in event a/12" {
		t.Fatalf("got %v", err)
	}
	if _, err := EncodeRuns(slices.Values([]Run{{ID: ID{"a", 0}, Run: oplog.Run{Kind: oplog.Insert, Dir: 1, Len: 2, Content: []rune("x")}}}), Options{}); err == nil {
		t.Fatal("insert run with the wrong content length accepted")
	}
}

// TestLogRunsRoundTrip: a log leaves as runs and comes back the same
// log, span for span; clipped spans start mid-entry with the predecessor
// as parent.
func TestLogRunsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		l, err := BuildLog(wholeBatch(rng, 1+rng.Intn(120)))
		if err != nil {
			t.Fatal(err)
		}
		full := causal.Span{End: causal.LV(l.Len())}
		l2, err := BuildLogRuns(LogRuns(l, full))
		if err != nil {
			t.Fatal(err)
		}
		if l2.Len() != l.Len() || l2.SpanCount() != l.SpanCount() {
			t.Fatalf("rebuilt log: %d events in %d spans, want %d in %d", l2.Len(), l2.SpanCount(), l.Len(), l.SpanCount())
		}
		all := EventsFromLog(l)
		if got := EventsFromLog(l2); !reflect.DeepEqual(got, all) {
			t.Fatal("rebuilt log exports different events")
		}
		// Sizing the log before filling it numbers the agents as filling
		// it would: in the order they first appear.
		var firstSeen []string
		for _, ev := range all {
			if !slices.Contains(firstSeen, ev.ID.Agent) {
				firstSeen = append(firstSeen, ev.ID.Agent)
			}
		}
		if got := l2.Graph.Agents(); !slices.Equal(got, firstSeen) {
			t.Fatalf("rebuilt log numbers its agents %v, first seen in the order %v", got, firstSeen)
		}
		// Two clipped spans: the events of each, in order.
		a, b := rng.Intn(l.Len()+1), rng.Intn(l.Len()+1)
		if a > b {
			a, b = b, a
		}
		mid := a + rng.Intn(b-a+1)
		got := expand(b-a, LogRuns(l, causal.Span{Start: causal.LV(a), End: causal.LV(mid)}, causal.Span{Start: causal.LV(mid), End: causal.LV(b)}))
		for k := range got {
			want := all[a+k]
			if got[k].ID != want.ID || got[k].Insert != want.Insert || got[k].Pos != want.Pos || got[k].Content != want.Content || !slices.Equal(got[k].Parents, want.Parents) {
				t.Fatalf("span [%d,%d) event %d = %+v, want %+v", a, b, k, got[k], want)
			}
		}
		if len(got) != b-a {
			t.Fatalf("span [%d,%d) gave %d events", a, b, len(got))
		}
	}
}

// wholeBatch is randomBatch made a whole history, as BuildLog needs it:
// the parents outside the batch dropped.
func wholeBatch(rng *rand.Rand, n int) []Event {
	evs := randomBatch(rng, n)
	have := map[ID]bool{}
	for k := range evs {
		ps := evs[k].Parents[:0:0]
		for _, p := range evs[k].Parents {
			if have[p] {
				ps = append(ps, p)
			}
		}
		evs[k].Parents = ps
		have[evs[k].ID] = true
	}
	return evs
}

// TestSaveDocumentMatchesEncodeRuns: a log written straight from its arrays
// is the frame its runs encode to, with a text and without, compressed and
// not — on histories of every shape randomBatch makes, parents far back
// and roots mid-batch among them.
func TestSaveDocumentMatchesEncodeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	text := rope.NewFromString("the döc 🙂")
	for i := 0; i < 200; i++ {
		l, err := BuildLog(wholeBatch(rng, rng.Intn(300)))
		if err != nil {
			t.Fatal(err)
		}
		full := causal.Span{End: causal.LV(l.Len())}
		for _, opts := range []Options{{}, {Compress: true}} {
			want, err := EncodeRuns(LogRuns(l, full), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := SaveDocument(l, nil, nil, opts); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%+v: SaveDocument of %d events (%v) differs from EncodeRuns of its runs", opts, l.Len(), err)
			}
			if want, err = EncodeRunsDoc(LogRuns(l, full), text.String(), opts); err != nil {
				t.Fatal(err)
			}
			if got, err := SaveDocument(l, text, nil, opts); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%+v: SaveDocument of %d events and a text (%v) differs from EncodeRunsDoc of its runs", opts, l.Len(), err)
			}
		}
	}
}

// TestExpandParentsDoNotAlias: the shared array behind default parents
// gives each event its own element with no spare capacity.
func TestExpandParentsDoNotAlias(t *testing.T) {
	data, err := Encode(typed("a", "abcd"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	evs := dec.Events
	_ = append(evs[1].Parents, ID{"x", 9}) // must not land in evs[2].Parents
	evs[1].Parents[0].Seq = 77             // nor change anything but evs[1]
	if evs[2].Parents[0] != (ID{"a", 1}) || evs[1].ID != (ID{"a", 1}) || evs[0].ID != (ID{"a", 0}) {
		t.Fatalf("parents alias: %+v", evs)
	}
}
