package main

import (
	"bytes"
	"fmt"
	"path/filepath"
)

// The end-to-end script. One round runs every unit of every timing metric,
// in a fixed order:
//
//	A  per document: load, save, edit, merge
//	B  per fan-out document: writer + subscribers through a server, on
//	   fresh copies of the populated directories
//
// and, in the traced run only (the two are per-layer diagnostics, see
// timingNames):
//
//	C  per document: cold join (server over the populated root, documents
//	   on disk only)
//	D  per document: rejoin, on fresh copies (a second server, so every
//	   reconnect finds its document closed and the join server's counters
//	   stay its own)
//
// Cheap metrics with few units run more than once per round (load four
// times, save and join twice, the fan-out script fanoutPasses times): more
// samples per unit for a few milliseconds. Every timed result is checked outside the clock; a
// wrong result is a failed operation.

const (
	mMerge = iota
	mEdit
	mSave
	mLoad
	mFanout
	mJoin
	mRejoin
	numTimings
)

// timingNames: join and rejoin are measured only by the traced run and
// reported there as server.join_ns_per_event and
// server.rejoin_us_per_reconnect (diag). A floor sample of either needs a
// dozen system calls and several goroutine hand-offs to go undisturbed at
// once, and their floors did not repeat well enough for an end-to-end metric
// (README); the join also was two fifths of a round's timed work, so leaving
// it out nearly doubles the rounds the other timings get.
var timingNames = [numTimings]struct {
	name, unit string
	scale      float64
	diag       bool
}{
	mMerge:  {name: "merge_ns_per_event", unit: "ns/event", scale: 1},
	mEdit:   {name: "edit_ns_per_event", unit: "ns/event", scale: 1},
	mSave:   {name: "save_ns_per_event", unit: "ns/event", scale: 1},
	mLoad:   {name: "load_ns_per_event", unit: "ns/event", scale: 1},
	mFanout: {name: "fanout_us_per_burst", unit: "us/burst", scale: 1e-3},
	mJoin:   {name: "join_ns_per_event", unit: "ns/event", scale: 1, diag: true},
	mRejoin: {name: "rejoin_us_per_reconnect", unit: "us", scale: 1e-3, diag: true},
}

// script holds one set of timing metrics (the traced run keeps two: traced
// and untraced) and the operation counts.
type script struct {
	c        *corpusFixtures
	workRoot string
	timings  [numTimings]*floorMetric
	diag     bool // also run the join and rejoin units (the traced run)

	attempted, failed int
	failures          []string // first few, for the report

	// exact count taken by joinPhase when asked to
	wireBytes int64
	// mergeUnitDoc[u] is the document merge unit u belongs to.
	mergeUnitDoc []int

	// server counters summed over rounds
	joinSrv, rejoinSrv, fanoutSrv MetricsSnapshot

	saveBuf bytes.Buffer

	// heapFloor is the heap right after the last hand-run collection.
	heapFloor uint64
}

// collectAfter is how much garbage may pile up before a hand-run
// collection. A collection costs time in proportion to the live heap (the
// fixtures), not to the garbage, so collecting at every document boundary
// would spend more time collecting than measuring.
const collectAfter = 64 << 20

// maybeCollect runs a collection, untimed, at a document boundary, once
// enough garbage has piled up.
func (sc *script) maybeCollect() {
	if heapAlloc() > sc.heapFloor+collectAfter {
		collect()
		sc.heapFloor = heapAlloc()
	}
}

func newScript(c *corpusFixtures, workRoot string, diag bool) *script {
	sc := &script{c: c, workRoot: workRoot, diag: diag}
	var work [numTimings]float64
	for _, fx := range c.docs {
		work[mMerge] += float64(fx.mergeEvents)
		work[mEdit] += float64(fx.editEvents)
		work[mSave] += float64(fx.n)
		work[mLoad] += float64(fx.n)
		work[mJoin] += float64(fx.n)
		work[mRejoin]++
		work[mFanout] += float64(len(fx.fanout))
	}
	for i, tn := range timingNames {
		sc.timings[i] = &floorMetric{name: tn.name, unit: tn.unit, scale: tn.scale, work: work[i]}
	}
	return sc
}

// check counts one checked operation.
func (sc *script) check(ok bool, format string, args ...any) {
	sc.attempted++
	if ok {
		return
	}
	sc.failed++
	if len(sc.failures) < 8 {
		sc.failures = append(sc.failures, fmt.Sprintf(format, args...))
	}
}

// round runs every unit once.
func (sc *script) round(r int, t *timer) error {
	var units [numTimings]int
	next := func(m int) int { units[m]++; return units[m] - 1 }
	s := sc.c.spec

	for _, fx := range sc.c.docs {
		if err := sc.docUnits(r, t, fx, next); err != nil {
			return err
		}
		sc.maybeCollect()
	}

	// The fan-out and the rejoin work on copies: a reconnect that uploads
	// and a fan-out both write, and every pass must find its document closed
	// on the server.
	rwRoot := filepath.Join(sc.workRoot, "rw")
	defer sc.c.fs.RemoveAll(rwRoot)
	if sc.diag {
		for pass := 0; pass < joinPasses; pass++ {
			if err := sc.joinPhase(r, t, false); err != nil {
				return err
			}
		}
		if err := sc.rejoinPhase(r, t, filepath.Join(rwRoot, "rejoin")); err != nil {
			return err
		}
	}

	// Every pass sends the same scripted bursts to a fresh copy of the
	// document under another ID, so each burst is sampled fanoutPasses
	// times per round.
	fanoutRoot := filepath.Join(rwRoot, "fanout")
	for pass := 0; pass < fanoutPasses; pass++ {
		for _, fx := range sc.c.docs[:s.fanoutDocs] {
			if err := copyDocDir(sc.c.fs, sc.c.popRoot, fanoutRoot, fx.docID, passID(fx.docID, pass)); err != nil {
				return err
			}
		}
	}
	fanoutHost, err := startHost(fanoutRoot, sc.c.fs)
	if err != nil {
		return err
	}
	var m MetricsSnapshot
	for pass := 0; pass < fanoutPasses; pass++ {
		unit := 0
		for _, fx := range sc.c.docs[:s.fanoutDocs] {
			if err := sc.fanoutUnits(r, t, fx, passID(fx.docID, pass), fanoutHost, fanoutSubs, sc.timings[mFanout], &unit); err != nil {
				fanoutHost.close()
				return err
			}
			sc.maybeCollect()
		}
	}
	if m, err = fanoutHost.close(); err != nil {
		return err
	}
	addCounters(&sc.fanoutSrv, m)
	return nil
}

// joinPhase joins every document once, cold: through a host that has never
// opened it.
func (sc *script) joinPhase(r int, t *timer, countBytes bool) error {
	h, err := startHost(sc.c.popRoot, sc.c.fs)
	if err != nil {
		return err
	}
	for i, fx := range sc.c.docs {
		if err := sc.joinUnit(r, t, fx, h, i, countBytes); err != nil {
			h.close()
			return err
		}
		sc.maybeCollect()
	}
	m, err := h.close()
	addCounters(&sc.joinSrv, m)
	return err
}

// rejoinPhase reconnects every document once, on fresh copies under root.
func (sc *script) rejoinPhase(r int, t *timer, root string) error {
	for _, fx := range sc.c.docs {
		if err := copyDocDir(sc.c.fs, sc.c.popRoot, root, fx.rejoinID, fx.rejoinID); err != nil {
			return err
		}
	}
	h, err := startHost(root, sc.c.fs)
	if err != nil {
		return err
	}
	for i, fx := range sc.c.docs {
		if err := sc.rejoinUnit(r, t, fx, h, i); err != nil {
			h.close()
			return err
		}
		sc.maybeCollect()
	}
	m, err := h.close()
	addCounters(&sc.rejoinSrv, m)
	return err
}

func addCounters(dst *MetricsSnapshot, m MetricsSnapshot) {
	dst.LazyMaterializations += m.LazyMaterializations
	dst.BlockServes += m.BlockServes
	dst.CoalescedFrames += m.CoalescedFrames
	dst.PeersSevered += m.PeersSevered
	dst.ResumeFallbacks += m.ResumeFallbacks
	dst.SummaryResumes += m.SummaryResumes
	dst.FullSnapshots += m.FullSnapshots
}

// docUnits: load, save, edit and merge of one document.
func (sc *script) docUnits(r int, t *timer, fx *fixture, next func(int) int) error {
	// Load and save are cheap and have one unit per document, so they run
	// several times per round: more samples for a few milliseconds.
	var d *Doc
	var err error
	loadUnit := next(mLoad)
	for pass := 0; pass < loadPasses; pass++ {
		err = t.run(sc.timings[mLoad], r, loadUnit, func(root int32) (err error) {
			sp := t.tr.child("doc.Load", root)
			d, err = docLoad(fx.file, "reader")
			t.tr.end(sp)
			return err
		})
		if err != nil {
			return err
		}
		sc.check(docFingerprint(d) == fx.fp && hashString(docText(d)) == fx.textHash, "%s: loaded document differs", fx.docID)
	}

	saveUnit := next(mSave)
	for pass := 0; pass < savePasses; pass++ {
		err = t.run(sc.timings[mSave], r, saveUnit, func(root int32) error {
			sc.saveBuf.Reset()
			sp := t.tr.child("doc.Save", root)
			err := docSave(d, &sc.saveBuf)
			t.tr.end(sp)
			return err
		})
		if err != nil {
			return err
		}
		sc.check(bytes.Equal(sc.saveBuf.Bytes(), fx.file), "%s: saved file differs from set-up's", fx.docID)
	}

	for lo := 0; lo < len(fx.edits); lo += editUnit {
		bursts := fx.edits[lo:min(lo+editUnit, len(fx.edits))]
		var made int
		err = t.run(sc.timings[mEdit], r, next(mEdit), func(root int32) error {
			for _, ops := range bursts {
				sp := t.tr.child("doc.InsertDelete", root)
				pre := docVersion(d)
				for _, op := range ops {
					var err error
					if op.insert {
						err = docInsert(d, op.pos, op.text)
					} else {
						err = docDelete(d, op.pos, op.n)
					}
					if err != nil {
						return err
					}
				}
				t.tr.end(sp)
				sp = t.tr.child("doc.EventsSince", root)
				evs, err := docEventsSince(d, pre)
				t.tr.end(sp)
				if err != nil {
					return err
				}
				made += len(evs)
			}
			return nil
		})
		if err != nil {
			return err
		}
		want := 0
		for _, ops := range bursts {
			for _, op := range ops {
				if op.insert {
					want += len([]rune(op.text))
				} else {
					want += op.n
				}
			}
		}
		sc.check(made == want, "%s: edit bursts made %d events, want %d", fx.docID, made, want)
	}
	sc.check(hashString(docText(d)) == fx.editTextHash, "%s: text after the edit script differs", fx.docID)

	// merge
	m := newDoc("merger")
	if fx.mergeStart != nil {
		if m, err = docLoad(fx.mergeStart, "merger"); err != nil {
			return err
		}
	}
	for _, batch := range fx.mergeBatches {
		if r == 0 {
			sc.mergeUnitDoc = append(sc.mergeUnitDoc, fx.idx)
		}
		err = t.run(sc.timings[mMerge], r, next(mMerge), func(root int32) error {
			sp := t.tr.child("doc.Apply", root)
			_, err := docApply(m, batch)
			t.tr.end(sp)
			return err
		})
		if err != nil {
			return err
		}
	}
	sc.check(docFingerprint(m) == fx.fp && hashString(docText(m)) == fx.textHash, "%s: merged document differs", fx.docID)
	return nil
}

// receiveInto applies events frames to d until it holds want events.
func receiveInto(t *timer, root int32, p *peer, d *Doc, want int) error {
	for docNumEvents(d) < want {
		sp := t.tr.child("netsync.RecvFrame", root)
		evs, err := recvEvents(p.pc)
		t.tr.end(sp)
		if err != nil {
			return err
		}
		sp = t.tr.child("doc.Apply", root)
		_, err = docApply(d, evs)
		t.tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// joinUnit: a new compact client dials a document the server holds only on
// disk and applies the catch-up to a fresh Doc.
func (sc *script) joinUnit(r int, t *timer, fx *fixture, h *host, unit int, countBytes bool) error {
	var d *Doc
	var p *peer
	var fp uint64
	err := t.run(sc.timings[mJoin], r, unit, func(root int32) (err error) {
		sp := t.tr.child("netsync.Dial", root)
		p, err = h.dial()
		t.tr.end(sp)
		if err != nil {
			return err
		}
		sp = t.tr.child("netsync.SendHello", root)
		err = sendHello(p.pc, fx.docID, nil)
		t.tr.end(sp)
		if err != nil {
			return err
		}
		d = newDoc("joiner")
		if err := receiveInto(t, root, p, d, fx.n); err != nil {
			return err
		}
		sp = t.tr.child("doc.Fingerprint", root)
		fp = docFingerprint(d)
		t.tr.end(sp)
		return nil
	})
	if err != nil {
		return err
	}
	sc.check(fp == fx.fp && hashString(docText(d)) == fx.textHash, "%s: joined document differs", fx.docID)
	if countBytes {
		sc.wireBytes += p.sconn.written.Load()
	}
	p.hangUp()
	return nil
}

// rejoinUnit: a client that holds part of the document reconnects with a
// summary hello. The clock runs from the dial until the client holds
// everything and — when it had offline edits to upload — the server has
// taken them (its handler returns once it has ingested what was sent
// before the hang-up).
func (sc *script) rejoinUnit(r int, t *timer, fx *fixture, h *host, unit int) error {
	d, err := docLoad(fx.heldFile, "client")
	if err != nil {
		return err
	}
	var p *peer
	var fp uint64
	err = t.run(sc.timings[mRejoin], r, unit, func(root int32) (err error) {
		sp := t.tr.child("netsync.Dial", root)
		p, err = h.dial()
		t.tr.end(sp)
		if err != nil {
			return err
		}
		sp = t.tr.child("doc.Summary", root)
		sum := docSummary(d)
		t.tr.end(sp)
		sp = t.tr.child("netsync.SendHello", root)
		err = sendHello(p.pc, fx.rejoinID, sum)
		t.tr.end(sp)
		if err != nil {
			return err
		}
		if fx.offline != nil {
			sp = t.tr.child("colenc.MarshalCompact", root)
			raw, err := marshalCompact(fx.offline)
			t.tr.end(sp)
			if err != nil {
				return err
			}
			sp = t.tr.child("netsync.SendRaw", root)
			err = sendRaw(p.pc, raw)
			t.tr.end(sp)
			if err != nil {
				return err
			}
		}
		if err := receiveInto(t, root, p, d, fx.n); err != nil {
			return err
		}
		sp = t.tr.child("doc.Fingerprint", root)
		fp = docFingerprint(d)
		t.tr.end(sp)
		if fx.offline != nil {
			sp = t.tr.child("server.ingest_wait", root)
			p.hangUp()
			t.tr.end(sp)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sc.check(fp == fx.fp && hashString(docText(d)) == fx.textHash, "%s: rejoined client differs", fx.docID)
	if fx.offline != nil {
		sfp, err := serverFingerprint(h.srv, fx.rejoinID)
		if err != nil {
			return err
		}
		sc.check(sfp == fx.fp, "%s: server and client differ after the reconnect", fx.docID)
	}
	p.hangUp()
	return nil
}

// passID names the copy of a document that fan-out pass k writes to.
func passID(docID string, pass int) string { return fmt.Sprintf("%s-p%d", docID, pass) }

// fanoutUnits: the writer's scripted bursts through the server to subs
// subscribers of docID, one burst in flight, one burst per timed unit (ten
// per unit did not repeat: a floor sample then needs ten bursts in a row to
// go undisturbed). Units are numbered from *unit on.
func (sc *script) fanoutUnits(r int, t *timer, fx *fixture, docID string, h *host, subs int, m *floorMetric, unit *int) error {
	g, err := newFanoutGroup(h, docID, fx.summary, subs, t.tr)
	if err != nil {
		return err
	}
	for i, b := range fx.fanout {
		*unit++
		err := t.run(m, r, *unit-1, func(root int32) error { return g.send(b.raw, root) })
		g.curRoot.Store(-1)
		if err != nil {
			g.close()
			return err
		}
		ok := true
		for _, s := range g.subs {
			ok = ok && len(s.got) > i && hashEvents(s.got[i]) == b.hash
		}
		sc.check(ok, "%s: fan-out burst %d reached a subscriber wrong", fx.docID, i)
	}
	return g.close()
}

// steadyHeap is the retained heap of all documents loaded at once, per
// event: the paper's steady-state memory (Fig. 10).
func steadyHeap(c *corpusFixtures) (float64, error) {
	// Twice, keeping the smaller: a stray buffer still alive at the second
	// reading can only add to the difference.
	a, err := steadyHeapOnce(c)
	if err != nil {
		return 0, err
	}
	b, err := steadyHeapOnce(c)
	return min(a, b), err
}

func steadyHeapOnce(c *corpusFixtures) (float64, error) {
	base := retainedHeap()
	docs := make([]*Doc, len(c.docs))
	for i, fx := range c.docs {
		d, err := docLoad(fx.file, "reader")
		if err != nil {
			return 0, err
		}
		docs[i] = d
	}
	after := retainedHeap()
	if docNumEvents(docs[0]) != c.docs[0].n {
		return 0, fmt.Errorf("steady heap: loaded document lost events")
	}
	return float64(after-base) / float64(c.events), nil
}

// mergePeakHeap merges every document once, untimed, with the collector
// off inside each batch and a full collection between batches. The peak is
// the largest heap seen at a batch end over the heap before the replica
// existed, so it counts the replica, the batch's garbage and the tracker's
// transient state; Σ_docs ÷ events.
func mergePeakHeap(c *corpusFixtures) (float64, error) {
	defer gcOff()()
	var sum uint64
	for _, fx := range c.docs {
		base := retainedHeap()
		m := newDoc("merger")
		if fx.mergeStart != nil {
			var err error
			if m, err = docLoad(fx.mergeStart, "merger"); err != nil {
				return 0, err
			}
		}
		var peak uint64
		for _, batch := range fx.mergeBatches {
			if _, err := docApply(m, batch); err != nil {
				return 0, err
			}
			if h := heapAlloc(); h > base {
				peak = max(peak, h-base)
			}
			collect()
		}
		if docFingerprint(m) != fx.fp {
			return 0, fmt.Errorf("%s: merged document differs", fx.docID)
		}
		sum += peak
	}
	return float64(sum) / float64(c.events), nil
}
