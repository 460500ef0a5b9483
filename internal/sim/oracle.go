package sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"

	"egwalker"
	"egwalker/internal/causal"
	"egwalker/internal/core"
	"egwalker/internal/listcrdt"
	"egwalker/internal/oplog"
)

// This file is the convergence oracle: after a simulation quiesces,
// every replica must agree — with each other, with an independent
// replay of the merged event graph, and with the reference list CRDT —
// and the state must survive Save/Load and Fork/Merge round-trips.

// CheckAll runs every oracle check against the quiesced replicas.
func CheckAll(docs []*egwalker.Doc) error {
	if err := CheckConvergence(docs); err != nil {
		return err
	}
	if err := CheckReferenceReplay(docs[0]); err != nil {
		return err
	}
	if err := CheckSpanUnitDifferential(docs[0]); err != nil {
		return err
	}
	if err := CheckListCRDT(docs[0]); err != nil {
		return err
	}
	if err := CheckSaveLoad(docs[0]); err != nil {
		return err
	}
	if err := CheckColencRoundTrip(docs[0]); err != nil {
		return err
	}
	if err := CheckSummaryDifferential(docs); err != nil {
		return err
	}
	return CheckForkMerge(docs)
}

// CheckConvergence verifies that every replica holds the full history
// and identical text. The fingerprint comparison runs first because it
// is what a production deployment would gossip; the full-text comparison
// backs it up so a fingerprint collision cannot mask divergence.
func CheckConvergence(docs []*egwalker.Doc) error {
	if len(docs) == 0 {
		return fmt.Errorf("oracle: no replicas")
	}
	fp0 := docs[0].Fingerprint()
	text0 := docs[0].Text()
	for i, d := range docs {
		if p := d.PendingEvents(); p != 0 {
			return fmt.Errorf("oracle: replica %d still has %d pending events (missing parents never arrived)", i, p)
		}
		if d.NumEvents() != docs[0].NumEvents() {
			return fmt.Errorf("oracle: replica %d has %d events, replica 0 has %d",
				i, d.NumEvents(), docs[0].NumEvents())
		}
		if fp := d.Fingerprint(); fp != fp0 {
			return fmt.Errorf("oracle: replica %d fingerprint %016x != replica 0 %016x", i, fp, fp0)
		}
		if t := d.Text(); t != text0 {
			return divergence(i, t, text0)
		}
	}
	return nil
}

// divergence reports where two texts first differ, which is far more
// useful than dumping both documents.
func divergence(i int, got, want string) error {
	g, w := []rune(got), []rune(want)
	at := 0
	for at < len(g) && at < len(w) && g[at] == w[at] {
		at++
	}
	lo, hiG, hiW := max(0, at-10), min(len(g), at+10), min(len(w), at+10)
	return fmt.Errorf("oracle: replica %d text diverged at rune %d (len %d vs %d): %q vs %q",
		i, at, len(g), len(w), string(g[lo:hiG]), string(w[lo:hiW]))
}

// logFromEvents rebuilds an oplog.Log from wire events (which Doc.Events
// yields in causal order), independent of any Doc's internal state.
func logFromEvents(events []egwalker.Event) (*oplog.Log, error) {
	l := oplog.New()
	lvOf := make(map[egwalker.EventID]causal.LV, len(events))
	for _, ev := range events {
		parents := make([]causal.LV, 0, len(ev.Parents))
		for _, p := range ev.Parents {
			lv, ok := lvOf[p]
			if !ok {
				return nil, fmt.Errorf("oracle: event %v references unseen parent %v", ev.ID, p)
			}
			parents = append(parents, lv)
		}
		op := oplog.Op{Kind: oplog.Delete, Pos: ev.Pos}
		if ev.Insert {
			op = oplog.Op{Kind: oplog.Insert, Pos: ev.Pos, Content: ev.Content}
		}
		sp, err := l.AddRemote(ev.ID.Agent, ev.ID.Seq, parents, []oplog.Op{op})
		if err != nil {
			return nil, fmt.Errorf("oracle: rebuilding log at event %v: %w", ev.ID, err)
		}
		lvOf[ev.ID] = sp.Start
	}
	return l, nil
}

// CheckReferenceReplay compares d's text against core.ReplayText over a
// log rebuilt from d's exported events — a second, independent walk of
// the whole event graph.
func CheckReferenceReplay(d *egwalker.Doc) error {
	l, err := logFromEvents(d.Events())
	if err != nil {
		return err
	}
	want, err := core.ReplayText(l)
	if err != nil {
		return fmt.Errorf("oracle: reference replay: %w", err)
	}
	if got := d.Text(); got != want {
		return fmt.Errorf("oracle: incremental text (len %d) != full reference replay (len %d)", len(got), len(want))
	}
	return nil
}

// CheckSpanUnitDifferential replays d's history through both the
// span-wise pipeline and the per-unit reference implementation: the
// documents must be byte-identical and the span stream must expand to
// exactly the per-unit stream.
func CheckSpanUnitDifferential(d *egwalker.Doc) error {
	l, err := logFromEvents(d.Events())
	if err != nil {
		return err
	}
	spanStream, err := core.UnitStream(l, core.TransformAll)
	if err != nil {
		return fmt.Errorf("oracle: span transform: %w", err)
	}
	unitStream, err := core.UnitStream(l, core.TransformAllUnitRef)
	if err != nil {
		return fmt.Errorf("oracle: unit-ref transform: %w", err)
	}
	if at := core.DiffUnitStreams(spanStream, unitStream); at >= 0 {
		return fmt.Errorf("oracle: span stream diverges from per-unit reference at unit op %d (lens %d vs %d)",
			at, len(spanStream), len(unitStream))
	}
	unit, err := core.ReplayTextUnitRef(l)
	if err != nil {
		return fmt.Errorf("oracle: unit-ref replay: %w", err)
	}
	if got := d.Text(); got != unit {
		return fmt.Errorf("oracle: per-unit reference text (len %d) != document text (len %d)", len(unit), len(got))
	}
	return nil
}

// CheckListCRDT merges the same history through the reference list CRDT
// (internal/listcrdt) and compares texts — a second-opinion model with
// completely different internals.
func CheckListCRDT(d *egwalker.Doc) error {
	l, err := logFromEvents(d.Events())
	if err != nil {
		return err
	}
	ops, err := listcrdt.FromLog(l)
	if err != nil {
		return fmt.Errorf("oracle: listcrdt conversion: %w", err)
	}
	crdt := listcrdt.New()
	if err := crdt.Merge(ops); err != nil {
		return fmt.Errorf("oracle: listcrdt merge: %w", err)
	}
	if got, want := crdt.Text(), d.Text(); got != want {
		return fmt.Errorf("oracle: listcrdt text (len %d) != egwalker text (len %d)", len(got), len(want))
	}
	return nil
}

// CheckColencRoundTrip pins the compact columnar batch codec to the
// legacy per-event codec: both encodings of the replica's full history
// must decode to the identical event list, and the columnar decode
// must reproduce the original events exactly.
func CheckColencRoundTrip(d *egwalker.Doc) error {
	events := d.Events()
	legacy, err := egwalker.MarshalEvents(events)
	if err != nil {
		return fmt.Errorf("oracle: legacy marshal: %w", err)
	}
	compact, err := egwalker.MarshalEventsCompact(events)
	if err != nil {
		return fmt.Errorf("oracle: columnar marshal: %w", err)
	}
	fromLegacy, err := egwalker.UnmarshalEventsAuto(legacy)
	if err != nil {
		return fmt.Errorf("oracle: legacy decode: %w", err)
	}
	fromCompact, err := egwalker.UnmarshalEventsAuto(compact)
	if err != nil {
		return fmt.Errorf("oracle: columnar decode: %w", err)
	}
	if len(fromLegacy) != len(fromCompact) || len(fromCompact) != len(events) {
		return fmt.Errorf("oracle: codec differential: event counts diverge (%d legacy, %d columnar, %d original)",
			len(fromLegacy), len(fromCompact), len(events))
	}
	for i := range events {
		if !reflect.DeepEqual(fromCompact[i], fromLegacy[i]) {
			return fmt.Errorf("oracle: codec differential: event %d diverges between codecs", i)
		}
		if !reflect.DeepEqual(fromCompact[i], events[i]) {
			return fmt.Errorf("oracle: codec differential: columnar round-trip changed event %d", i)
		}
	}
	return nil
}

// CheckSaveLoad round-trips d through every persistence mode — the
// option variants of the columnar format, pruned ones too — and checks
// that a pruned load still merges: with an edit of its own, it converges
// with a peer that has one.
func CheckSaveLoad(d *egwalker.Doc) error {
	want := d.Text()
	for _, opts := range []egwalker.SaveOptions{
		{},
		{CacheFinalDoc: true},
		{Compress: true},
		{CacheFinalDoc: true, Compress: true},
		{OmitDeletedContent: true},
		{OmitDeletedContent: true, Compress: true},
		{OmitDeletedContent: true, CacheFinalDoc: true},
	} {
		var buf bytes.Buffer
		if err := d.Save(&buf, opts); err != nil {
			return fmt.Errorf("oracle: save %+v: %w", opts, err)
		}
		loaded, err := egwalker.Load(&buf, "oracle-loader")
		if err != nil {
			return fmt.Errorf("oracle: load %+v: %w", opts, err)
		}
		if loaded.Text() != want {
			return fmt.Errorf("oracle: save/load %+v changed the text", opts)
		}
		if loaded.NumEvents() != d.NumEvents() {
			return fmt.Errorf("oracle: save/load %+v changed event count: %d != %d",
				opts, loaded.NumEvents(), d.NumEvents())
		}
		if opts.OmitDeletedContent {
			// A pruned load still merges: with an edit of its own, it
			// converges with a peer that has one.
			peer, err := d.Fork("oracle-peer")
			if err == nil {
				err = errors.Join(loaded.Insert(0, "pruned+"), peer.Insert(peer.Len(), "+peer"), peer.Merge(loaded), loaded.Merge(peer))
			}
			if err != nil || loaded.Fingerprint() != peer.Fingerprint() {
				return fmt.Errorf("oracle: a pruned load %+v and a peer, both edited, do not converge (%v)", opts, err)
			}
		}
	}
	return nil
}

// CheckSummaryDifferential validates the run-length version summaries
// against brute-force event-ID sets. Every replica's Summary() must
// enumerate exactly the IDs it holds; for a pair of freshly diverged
// forks, IntersectSummary must equal the set intersection,
// EventsSinceSummary must yield exactly the set difference (no
// re-sends, no gaps, no duplicates), and exchanging the two diffs must
// converge both forks — the reconnect-handshake guarantee, checked
// against every randomized history the simulator produces.
func CheckSummaryDifferential(docs []*egwalker.Doc) error {
	idSet := func(d *egwalker.Doc) map[egwalker.EventID]bool {
		s := make(map[egwalker.EventID]bool, d.NumEvents())
		for _, ev := range d.Events() {
			s[ev.ID] = true
		}
		return s
	}
	sumSet := func(s egwalker.VersionSummary) map[egwalker.EventID]bool {
		m := make(map[egwalker.EventID]bool, s.NumEvents())
		for agent, ranges := range s {
			for _, r := range ranges {
				for q := r.Start; q < r.End; q++ {
					m[egwalker.EventID{Agent: agent, Seq: q}] = true
				}
			}
		}
		return m
	}
	for i, d := range docs {
		sum := d.Summary()
		if err := sum.Validate(); err != nil {
			return fmt.Errorf("oracle: replica %d summary invalid: %w", i, err)
		}
		if want := idSet(d); !reflect.DeepEqual(sumSet(sum), want) {
			return fmt.Errorf("oracle: replica %d summary covers %d events, holds %d — summary set diverged from event set",
				i, sum.NumEvents(), len(want))
		}
	}
	a, err := docs[0].Fork("oracle-sum-a")
	if err != nil {
		return fmt.Errorf("oracle: fork a: %w", err)
	}
	b, err := docs[0].Fork("oracle-sum-b")
	if err != nil {
		return fmt.Errorf("oracle: fork b: %w", err)
	}
	if err := a.Insert(0, "sum-a!"); err != nil {
		return err
	}
	if err := b.Insert(b.Len(), "sum-b!"); err != nil {
		return err
	}
	setA, setB := idSet(a), idSet(b)
	inter := egwalker.IntersectSummary(a.Summary(), b.Summary())
	if err := inter.Validate(); err != nil {
		return fmt.Errorf("oracle: intersection invalid: %w", err)
	}
	bruteInter := make(map[egwalker.EventID]bool, len(setA))
	for id := range setA {
		if setB[id] {
			bruteInter[id] = true
		}
	}
	if !reflect.DeepEqual(sumSet(inter), bruteInter) {
		return fmt.Errorf("oracle: IntersectSummary covers %d events, brute-force intersection has %d",
			inter.NumEvents(), len(bruteInter))
	}
	diff := func(from *egwalker.Doc, have, theirs map[egwalker.EventID]bool, sum egwalker.VersionSummary) ([]egwalker.Event, error) {
		events, err := from.EventsSinceSummary(sum)
		if err != nil {
			return nil, fmt.Errorf("oracle: EventsSinceSummary: %w", err)
		}
		seen := make(map[egwalker.EventID]bool, len(events))
		for _, ev := range events {
			if seen[ev.ID] {
				return nil, fmt.Errorf("oracle: summary diff duplicated event %v", ev.ID)
			}
			seen[ev.ID] = true
			if !have[ev.ID] {
				return nil, fmt.Errorf("oracle: summary diff invented event %v", ev.ID)
			}
			if theirs[ev.ID] {
				return nil, fmt.Errorf("oracle: summary diff re-sent event %v the peer already holds", ev.ID)
			}
		}
		want := 0
		for id := range have {
			if !theirs[id] {
				want++
			}
		}
		if len(events) != want {
			return nil, fmt.Errorf("oracle: summary diff has %d events, set difference has %d", len(events), want)
		}
		return events, nil
	}
	aNotB, err := diff(a, setA, setB, b.Summary())
	if err != nil {
		return err
	}
	bNotA, err := diff(b, setB, setA, a.Summary())
	if err != nil {
		return err
	}
	if _, err := a.Apply(bNotA); err != nil {
		return fmt.Errorf("oracle: applying summary diff to a: %w", err)
	}
	if _, err := b.Apply(aNotB); err != nil {
		return fmt.Errorf("oracle: applying summary diff to b: %w", err)
	}
	if a.Fingerprint() != b.Fingerprint() || a.Text() != b.Text() {
		return divergence(1, b.Text(), a.Text())
	}
	return nil
}

// CheckForkMerge forks two fresh replicas off docs[0], lets them diverge
// with fixed edits, and merges them both ways: both orders must agree,
// and merging a replica that has seen everything must be a no-op.
func CheckForkMerge(docs []*egwalker.Doc) error {
	a, err := docs[0].Fork("oracle-fork-a")
	if err != nil {
		return fmt.Errorf("oracle: fork a: %w", err)
	}
	b, err := docs[0].Fork("oracle-fork-b")
	if err != nil {
		return fmt.Errorf("oracle: fork b: %w", err)
	}
	if a.Text() != docs[0].Text() {
		return fmt.Errorf("oracle: fork changed the text")
	}
	if err := a.Insert(0, "fork-a!"); err != nil {
		return err
	}
	if err := b.Insert(b.Len(), "fork-b!"); err != nil {
		return err
	}
	if b.Len() > 0 {
		if err := b.Delete(0, 1); err != nil {
			return err
		}
	}
	if err := a.Merge(b); err != nil {
		return fmt.Errorf("oracle: merge b into a: %w", err)
	}
	if err := b.Merge(a); err != nil {
		return fmt.Errorf("oracle: merge a into b: %w", err)
	}
	if a.Text() != b.Text() {
		return divergence(1, b.Text(), a.Text())
	}
	// Idempotence: merging again changes nothing.
	before := a.Text()
	if err := a.Merge(b); err != nil {
		return err
	}
	if a.Text() != before {
		return fmt.Errorf("oracle: repeated merge changed the text")
	}
	return nil
}
