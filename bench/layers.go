package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// Per-layer metrics: the traced run calls each layer's public functions
// from outside, on the same documents the end-to-end script uses, and
// floor-estimates each call the same way. They are diagnostics: none has a
// bound. Counts are exact; rows marked diag depend on queueing and moved
// 15–20 % between runs when measured.

const (
	layerEvents = 30000 // the layer units run on the first documents holding this many events
	repeatSmall = 50    // calls per unit for microsecond-scale operations
	repeatFrame = 200   // frames per unit of the netsync round trips
)

// layerSet holds the traced run's per-layer results.
type layerSet struct {
	floors map[string]*floorMetric
	counts map[string]*ratio // exact counts, summed over the layer documents
	values map[string]metric // diags and derived rows
}

type ratio struct{ num, den float64 }

func newLayerSet() *layerSet {
	return &layerSet{floors: make(map[string]*floorMetric), counts: make(map[string]*ratio), values: make(map[string]metric)}
}

func (ls *layerSet) floor(name, unit string, scale float64) *floorMetric {
	m := ls.floors[name]
	if m == nil {
		m = &floorMetric{name: name, unit: unit, scale: scale}
		ls.floors[name] = m
	}
	return m
}

func (ls *layerSet) set(name string, v float64, unit string) { ls.values[name] = metric{v, unit} }

// layerDoc is what the layer units of one document need beyond its
// fixture.
type layerDoc struct {
	fx          *fixture
	wire        []wireEvent
	text        string
	batchWire   [][]wireEvent // 4096-event batches
	batches     [][]byte      // the same, encoded
	xops        []xop         // the transformed ops of a whole replay
	final       *Doc
	heldSummary VersionSummary
	heldEvents  int
	log         *opLog // kept for the diff unit
	heads, held frontier
	summaryWire []byte
	bursts      []burstEvents // the fan-out script, decoded (store units)
}

type burstEvents struct {
	evs []Event
	raw []byte
}

// layerScript is the traced run's per-layer script.
type layerScript struct {
	c        *corpusFixtures
	workRoot string
	ls       *layerSet
	docs     []*layerDoc
	store    []*layerDoc // those with a fan-out script (at most two)
	fs       *countFS
	sc       *script        // for check() and maybeCollect()
	idx      map[string]int // next unit of each metric in this round
}

func newLayerScript(c *corpusFixtures, workRoot string, sc *script) (*layerScript, error) {
	l := &layerScript{c: c, workRoot: workRoot, ls: newLayerSet(), fs: &countFS{}, sc: sc}
	events := 0
	for _, fx := range c.docs {
		if events >= layerEvents {
			break
		}
		events += fx.n
		ld, err := prepareLayerDoc(c.spec, fx)
		if err != nil {
			return nil, err
		}
		l.docs = append(l.docs, ld)
		if len(fx.fanout) > 0 && len(l.store) < 2 {
			for _, b := range fx.fanout {
				evs, err := unmarshalAuto(b.raw)
				if err != nil {
					return nil, err
				}
				ld.bursts = append(ld.bursts, burstEvents{evs, b.raw})
			}
			l.store = append(l.store, ld)
		}
	}
	return l, nil
}

func prepareLayerDoc(s spec, fx *fixture) (*layerDoc, error) {
	ld := &layerDoc{fx: fx, wire: toWire(fx.events)}
	for i := 0; i < len(ld.wire); i += 4096 {
		w := ld.wire[i:min(i+4096, len(ld.wire))]
		enc, err := colencEncode(w)
		if err != nil {
			return nil, err
		}
		ld.batchWire, ld.batches = append(ld.batchWire, w), append(ld.batches, enc)
	}
	var err error
	if ld.log, err = buildLog(ld.wire); err != nil {
		return nil, err
	}
	if err := transformAll(ld.log, func(op xop) { ld.xops = append(ld.xops, xopCopy(op)) }); err != nil {
		return nil, err
	}
	if ld.final, err = docLoad(fx.file, "layers"); err != nil {
		return nil, err
	}
	ld.text = docText(ld.final)
	held, err := docLoad(fx.heldFile, "held")
	if err != nil {
		return nil, err
	}
	ld.heldSummary, ld.heldEvents = docSummary(held), docNumEvents(held)
	g := logGraph(ld.log)
	ld.heads = graphFrontier(g)
	// The diff the rejoin asks for: everything against the first events of
	// the canonical order (a causally closed prefix).
	ld.held = graphFrontierAt(g, fx.n-min(s.tail, fx.n/2))
	ld.summaryWire = marshalSummary(fx.summary)
	return ld, nil
}

// unit times fn as the next unit of a floor metric, adding work on the
// first round.
func (l *layerScript) unit(t *timer, r int, name, unit string, scale, work float64, fn func() error) error {
	m := l.ls.floor(name, unit, scale)
	u := l.idx[name]
	l.idx[name] = u + 1
	if r == 0 {
		m.work += work
	}
	return t.run(m, r, u, func(int32) error { return fn() })
}

// round runs every layer unit once.
func (l *layerScript) round(r int, t *timer) error {
	l.idx = make(map[string]int)
	for _, ld := range l.docs {
		if err := l.docRound(r, t, ld); err != nil {
			return err
		}
		l.sc.maybeCollect()
	}
	if err := l.netsyncRound(r, t); err != nil {
		return err
	}
	for _, ld := range l.store {
		if err := l.storeRound(r, t, ld); err != nil {
			return err
		}
		l.sc.maybeCollect()
	}
	return l.serverRound(r, t)
}

func (l *layerScript) docRound(r int, t *timer, ld *layerDoc) error {
	n := float64(ld.fx.n)
	fx := ld.fx
	var encoded int
	if err := l.unit(t, r, "colenc.encode_ns_per_event", "ns/event", 1, n, func() error {
		encoded = 0
		for _, w := range ld.batchWire {
			b, err := colencEncode(w)
			if err != nil {
				return err
			}
			encoded += len(b)
		}
		return nil
	}); err != nil {
		return err
	}
	var decoded int
	if err := l.unit(t, r, "colenc.decode_ns_per_event", "ns/event", 1, n, func() error {
		decoded = 0
		for _, b := range ld.batches {
			evs, err := colencDecode(b)
			if err != nil {
				return err
			}
			decoded += len(evs)
		}
		return nil
	}); err != nil {
		return err
	}
	var inspected int
	if err := l.unit(t, r, "colenc.inspect_ns_per_event", "ns/event", 1, n, func() error {
		inspected = 0
		for _, b := range ld.batches {
			k, err := colencInspect(b)
			if err != nil {
				return err
			}
			inspected += k
		}
		return nil
	}); err != nil {
		return err
	}
	l.sc.check(decoded == fx.n && inspected == fx.n, "%s: colenc decoded %d and inspected %d of %d events", fx.docID, decoded, inspected, fx.n)

	var log *opLog
	if err := l.unit(t, r, "oplog.build_ns_per_event", "ns/event", 1, n, func() (err error) {
		log, err = buildLog(ld.wire)
		return err
	}); err != nil {
		return err
	}
	var critical int
	if err := l.unit(t, r, "causal.critical_boundaries_ns_per_event", "ns/event", 1, n, func() error {
		critical = 0
		for _, c := range criticalBoundaries(logGraph(log)) {
			if c {
				critical++
			}
		}
		return nil
	}); err != nil {
		return err
	}
	xops := 0
	if err := l.unit(t, r, "core.transform_ns_per_event", "ns/event", 1, n, func() error {
		xops = 0
		return transformAll(log, func(xop) { xops++ })
	}); err != nil {
		return err
	}
	var replayed *ropeT
	if err := l.unit(t, r, "core.replay_ns_per_event", "ns/event", 1, n, func() (err error) {
		replayed, err = replayRope(log)
		return err
	}); err != nil {
		return err
	}
	applied := newRope()
	if err := l.unit(t, r, "rope.apply_ns_per_xop", "ns/xop", 1, float64(len(ld.xops)), func() error {
		for _, op := range ld.xops {
			if err := applyXOp(applied, op); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var fromString *ropeT
	if err := l.unit(t, r, "rope.from_string_ns_per_rune", "ns/rune", 1, float64(fx.textLen), func() error {
		fromString = ropeFromString(ld.text)
		return nil
	}); err != nil {
		return err
	}
	l.sc.check(hashString(ropeString(replayed)) == fx.textHash && hashString(ropeString(applied)) == fx.textHash && ropeLen(fromString) == fx.textLen,
		"%s: replayed, re-applied or rebuilt rope differs from the document", fx.docID)
	if r == 0 {
		l.addCount("causal.critical_frac", float64(critical), n)
		l.addCount("core.xops_per_event", float64(xops), n)
		l.addCount("colenc.batch_bytes_per_event", float64(encoded), n)
	}

	var events []Event
	if err := l.unit(t, r, "doc.events_ns_per_event", "ns/event", 1, n, func() error {
		events = docEvents(ld.final)
		return nil
	}); err != nil {
		return err
	}
	ranges := 0
	if err := l.unit(t, r, "doc.summary_us_per_call", "us", 1e-3, repeatSmall, func() error {
		for i := 0; i < repeatSmall; i++ {
			ranges = len(docSummary(ld.final))
		}
		return nil
	}); err != nil {
		return err
	}
	var missing []Event
	if err := l.unit(t, r, "doc.events_since_summary_ns_per_event", "ns/event", 1, float64(fx.n-ld.heldEvents), func() (err error) {
		missing, err = docEventsSinceSummary(ld.final, ld.heldSummary)
		return err
	}); err != nil {
		return err
	}
	var fork *Doc
	if err := l.unit(t, r, "doc.fork_ns_per_event", "ns/event", 1, n, func() (err error) {
		fork, err = docFork(ld.final, "fork")
		return err
	}); err != nil {
		return err
	}
	l.sc.check(hashEvents(events) == fx.eventsHash && ranges == len(fx.summary) && len(missing) == fx.n-ld.heldEvents && docFingerprint(fork) == fx.fp,
		"%s: Events, Summary, EventsSinceSummary or Fork returned something else than set-up saw", fx.docID)

	spans := 0
	if err := l.unit(t, r, "causal.diff_us_per_call", "us", 1e-3, repeatSmall, func() error {
		g := logGraph(ld.log)
		for i := 0; i < repeatSmall; i++ {
			spans = graphDiff(g, ld.heads, ld.held)
		}
		return nil
	}); err != nil {
		return err
	}
	var back VersionSummary
	if err := l.unit(t, r, "netsync.summary_codec_us_per_call", "us", 1e-3, repeatSmall, func() (err error) {
		for i := 0; i < repeatSmall; i++ {
			if back, err = unmarshalSummary(marshalSummary(fx.summary)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.sc.check(spans > 0 && len(back) == len(fx.summary), "%s: empty graph diff or summary lost agents on the wire", fx.docID)
	if r == 0 {
		l.addCount("netsync.summary_bytes", float64(len(ld.summaryWire)), 1)
	}
	return nil
}

// addCount accumulates a ratio of exact counts over the layer documents.
func (l *layerScript) addCount(name string, num, den float64) {
	c := l.ls.counts[name]
	if c == nil {
		c = &ratio{}
		l.ls.counts[name] = c
	}
	c.num += num
	c.den += den
}

// netsyncRound: frames and hellos across one bufconn pair, written and
// read by the same goroutine so no scheduling is in the number.
func (l *layerScript) netsyncRound(r int, t *timer) error {
	ld := l.docs[0]
	ln := listen()
	defer ln.Close()
	a, err := ln.Dial()
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := ln.Accept()
	if err != nil {
		return err
	}
	defer b.Close()
	pa, pb := newPeerConn(a), newPeerConn(b)
	raw, err := marshalCompact(ld.fx.events[:10])
	if err != nil {
		return err
	}
	got := 0
	if err := l.unit(t, r, "netsync.frame_rtt_us", "us", 1e-3, repeatFrame, func() error {
		got = 0
		for i := 0; i < repeatFrame; i++ {
			if err := sendRaw(pa, raw); err != nil {
				return err
			}
			evs, err := recvEvents(pb)
			if err != nil {
				return err
			}
			got += len(evs)
		}
		return nil
	}); err != nil {
		return err
	}
	hellos := 0
	if err := l.unit(t, r, "netsync.hello_roundtrip_us", "us", 1e-3, repeatFrame, func() error {
		hellos = 0
		for i := 0; i < repeatFrame; i++ {
			if err := sendHello(pa, ld.fx.docID, ld.fx.summary); err != nil {
				return err
			}
			id, err := readHello(b)
			if err != nil {
				return err
			}
			if id == ld.fx.docID {
				hellos++
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.sc.check(got == 10*repeatFrame && hellos == repeatFrame, "netsync: %d events and %d hellos crossed the pair, want %d and %d", got, hellos, 10*repeatFrame, repeatFrame)
	return nil
}

// storeRound: DocStore called directly through the counting FS, on fresh
// copies of the populated directory.
func (l *layerScript) storeRound(r int, t *timer, ld *layerDoc) error {
	fx := ld.fx
	n := float64(fx.n)
	root := filepath.Join(l.workRoot, fmt.Sprintf("layers-%d", r))
	defer os.RemoveAll(root)
	lazyRoot, matRoot := filepath.Join(root, "lazy"), filepath.Join(root, "mat")
	for _, dst := range []string{lazyRoot, matRoot} {
		if err := l.c.fs.exportDir(filepath.Join(l.c.popRoot, fx.docID), filepath.Join(dst, fx.docID)); err != nil {
			return err
		}
	}
	burstEvents := 0
	for _, b := range ld.bursts {
		burstEvents += len(b.evs)
	}

	// journal-only
	var ds *DocStore
	if err := l.unit(t, r, "store.open_lazy_ns_per_event", "ns/event", 1, n, func() (err error) {
		ds, err = storeOpenLazy(lazyRoot, fx.docID, l.fs)
		return err
	}); err != nil {
		return err
	}
	defer func() {
		if ds != nil {
			storeClose(ds)
		}
	}()
	streamed := 0
	if err := l.unit(t, r, "store.stream_blocks_ns_per_event", "ns/event", 1, n, func() error {
		streamed = 0
		_, err := storeStream(ds, func(p []byte) error { streamed += len(p); return nil })
		return err
	}); err != nil {
		return err
	}
	l.fs.reset()
	if err := l.ingestUnits(t, r, "store.ingest_us_per_burst", ds, ld.bursts); err != nil {
		return err
	}
	if err := l.unit(t, r, "store.sync_us_per_sync", "us", 1e-3, 1, func() error { return storeSync(ds) }); err != nil {
		return err
	}
	if r == 0 {
		w, wb, syncs := l.fs.counts()
		l.addCount("store.fs_write_bytes_per_event", float64(wb), float64(burstEvents))
		l.addCount("store.fs_writes_per_burst", float64(w), float64(len(ld.bursts)))
		l.addCount("store.fs_syncs_per_1k_events", float64(syncs)*1000, float64(burstEvents))
		snap, wal := storeDiskUsage(ds)
		l.addCount("store.snapshot_bytes_per_event", float64(snap), n)
		l.addCount("store.wal_bytes_per_event", float64(wal), float64(l.c.spec.tail+burstEvents))
	}
	if err := l.unit(t, r, "store.materialize_ns_per_event", "ns/event", 1, n+float64(burstEvents), func() error {
		return storeMaterialize(ds)
	}); err != nil {
		return err
	}
	l.sc.check(streamed > 0 && storeNumEvents(ds) == fx.n+burstEvents, "%s: journal-only store holds %d events after the bursts, want %d", fx.docID, storeNumEvents(ds), fx.n+burstEvents)
	if r == 0 {
		// Durability: what was synced survives a crash, what was not is gone.
		if err := l.crashCheck(ds, fx, burstEvents); err != nil {
			return err
		}
		ds = nil // Crash closed it
	}

	// materialized
	var ms *DocStore
	if err := l.unit(t, r, "store.open_ns_per_event", "ns/event", 1, n, func() (err error) {
		ms, err = storeOpen(matRoot, fx.docID, l.fs)
		return err
	}); err != nil {
		return err
	}
	defer storeClose(ms)
	if err := l.ingestUnits(t, r, "store.apply_us_per_burst", ms, ld.bursts); err != nil {
		return err
	}
	if err := l.unit(t, r, "store.snapshot_ns_per_event", "ns/event", 1, n+float64(burstEvents), func() error {
		return storeSnapshot(ms)
	}); err != nil {
		return err
	}
	l.sc.check(storeNumEvents(ms) == fx.n+burstEvents, "%s: materialized store holds %d events after the bursts, want %d", fx.docID, storeNumEvents(ms), fx.n+burstEvents)
	return nil
}

// ingestUnits ingests the scripted bursts into ds, ten per timed unit (a
// burst is two microseconds; the clock should not be a share of it).
func (l *layerScript) ingestUnits(t *timer, r int, name string, ds *DocStore, bursts []burstEvents) error {
	const perUnit = 10
	for lo := 0; lo < len(bursts); lo += perUnit {
		unit := bursts[lo:min(lo+perUnit, len(bursts))]
		if err := l.unit(t, r, name, "us/burst", 1e-3, float64(len(unit)), func() error {
			for _, b := range unit {
				if _, err := storeIngest(ds, b.evs, b.raw); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// crashCheck: after Sync and a simulated crash the reopened store holds
// exactly the synced events — the unsynced batch written after the Sync is
// gone, nothing synced is.
func (l *layerScript) crashCheck(ds *DocStore, fx *fixture, burstEvents int) error {
	synced := storeNumEvents(ds)
	d := storeDoc(ds)
	if d == nil {
		return fmt.Errorf("%s: store lost its document", fx.docID)
	}
	w, err := docFork(d, "late")
	if err != nil {
		return err
	}
	pre := docVersion(w)
	if err := docInsert(w, 0, "unsynced"); err != nil {
		return err
	}
	late, err := docEventsSince(w, pre)
	if err != nil {
		return err
	}
	raw, err := marshalCompact(late)
	if err != nil {
		return err
	}
	if _, err := storeIngest(ds, late, raw); err != nil {
		return err
	}
	re, err := storeCrash(ds)
	if err != nil {
		return err
	}
	defer storeClose(re)
	l.sc.check(storeNumEvents(re) == synced && synced == fx.n+burstEvents,
		"%s: after Sync and Crash the store holds %d events, %d were synced", fx.docID, storeNumEvents(re), synced)
	return nil
}

// serverRound: the fan-out script of document 0 at 1 and 64 subscribers.
func (l *layerScript) serverRound(r int, t *timer) error {
	fx := l.c.docs[0]
	for _, subs := range []int{1, 64} {
		root := filepath.Join(l.workRoot, fmt.Sprintf("layers-fanout-%d", subs))
		if err := copyDocDir(l.c.fs, l.c.popRoot, root, fx.docID, fx.docID); err != nil {
			return err
		}
		h, err := startHost(root, l.c.fs)
		if err != nil {
			return err
		}
		m := l.ls.floor(fmt.Sprintf("server.fanout_us_per_burst_s%d", subs), "us/burst", 1e-3)
		if r == 0 {
			m.work = float64(len(fx.fanout))
		}
		u := 0
		err = l.sc.fanoutUnits(r, t, fx, fx.docID, h, subs, m, &u)
		snap, cerr := h.close()
		l.c.fs.RemoveAll(root)
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		addCounters(&l.sc.fanoutSrv, snap)
	}
	return nil
}

// countFS wraps the real filesystem and counts writes and syncs — the
// store.fs_* rows.
type countFS struct {
	osFS
	writes, writeBytes, syncs int64
}

func (c *countFS) reset() { c.writes, c.writeBytes, c.syncs = 0, 0, 0 }

func (c *countFS) counts() (writes, bytes, syncs int64) { return c.writes, c.writeBytes, c.syncs }

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (StoreFile, error) {
	f, err := c.osFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{StoreFile: f, fs: c}, nil
}

// countFile counts one file's writes. The store calls it under its own
// lock, one document at a time here, so plain fields suffice.
type countFile struct {
	StoreFile
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.StoreFile.Write(p)
	f.fs.writes++
	f.fs.writeBytes += int64(n)
	return n, err
}

func (f *countFile) Sync() error {
	f.fs.syncs++
	return f.StoreFile.Sync()
}

// results turns the layer set into reported metrics.
func (ls *layerSet) results(minRounds int) (map[string]metric, error) {
	out := make(map[string]metric)
	for name, m := range ls.floors {
		v, err := m.value(minRounds)
		if err != nil {
			return nil, err
		}
		out[name] = metric{v, m.unit}
	}
	for name, c := range ls.counts {
		if c.den == 0 {
			return nil, fmt.Errorf("%s: nothing counted", name)
		}
		out[name] = metric{c.num / c.den, "count"}
	}
	for name, v := range ls.values {
		out[name] = v
	}
	return out, nil
}
