package main

// adapter.go is the only file of the benchmark that names a symbol of the
// repository. Everything else calls these wrappers, so a change to the
// repository's API is a change to this file alone, and the set of symbols
// the benchmark depends on can be read off in one place.
//
// The set is kept to the survivors ROADMAP's one-protocol item names: the
// parsed v2 hello (compact, summary), RecvFrame/SendRaw, the compact batch
// codec, the Doc methods below, store.NewServer/ServeConn/MetricsSnapshot
// and store.Open/OpenLazy/IngestBatch/Sync/CutForServe/StreamBlocks. No
// legacy hello, no EGW1, none of the New*ClientForDoc constructors.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"time"

	"egwalker"
	"egwalker/internal/bufconn"
	"egwalker/internal/causal"
	"egwalker/internal/colenc"
	"egwalker/internal/core"
	"egwalker/internal/listcrdt"
	"egwalker/internal/oplog"
	"egwalker/internal/ot"
	"egwalker/internal/rope"
	"egwalker/netsync"
	"egwalker/store"
)

var (
	errUnexpectedFrame = errors.New("expected an events frame")
	errNoBlockCut      = errors.New("store cannot block-serve this document")
)

type (
	Doc            = egwalker.Doc
	Event          = egwalker.Event
	Patch          = egwalker.Patch
	Version        = egwalker.Version
	VersionSummary = egwalker.VersionSummary

	PeerConn = netsync.PeerConn

	DocStore        = store.DocStore
	Server          = store.Server
	MetricsSnapshot = store.MetricsSnapshot
	StoreFS         = store.FS
	StoreFile       = store.File

	Listener = bufconn.Listener

	wireEvent = colenc.Event
	opLog     = oplog.Log
	xop       = core.XOp
	ropeT     = rope.Rope
	graph     = causal.Graph
)

// --- egwalker (root package): the Doc API --------------------------------

func newDoc(agent string) *Doc                     { return egwalker.NewDoc(agent) }
func docInsert(d *Doc, pos int, text string) error { return d.Insert(pos, text) }
func docDelete(d *Doc, pos, n int) error           { return d.Delete(pos, n) }
func docApply(d *Doc, evs []Event) ([]Patch, error) {
	return d.Apply(evs)
}
func docFork(d *Doc, agent string) (*Doc, error) { return d.Fork(agent) }
func docEvents(d *Doc) []Event                   { return d.Events() }
func docEventsSince(d *Doc, v Version) ([]Event, error) {
	return d.EventsSince(v)
}
func docSummary(d *Doc) VersionSummary { return d.Summary() }
func docEventsSinceSummary(d *Doc, s VersionSummary) ([]Event, error) {
	return d.EventsSinceSummary(s)
}
func docVersion(d *Doc) Version    { return d.Version() }
func docFingerprint(d *Doc) uint64 { return d.Fingerprint() }
func docText(d *Doc) string        { return d.Text() }
func docLen(d *Doc) int            { return d.Len() }
func docNumEvents(d *Doc) int      { return d.NumEvents() }

// docSave writes the file format the load metric reads: compact columnar
// with the final text cached.
func docSave(d *Doc, w io.Writer) error {
	return d.Save(w, egwalker.SaveOptions{CacheFinalDoc: true})
}
func docLoad(file []byte, agent string) (*Doc, error) {
	return egwalker.Load(bytes.NewReader(file), agent)
}

func marshalCompact(evs []Event) ([]byte, error) { return egwalker.MarshalEventsCompact(evs) }
func unmarshalAuto(b []byte) ([]Event, error)    { return egwalker.UnmarshalEventsAuto(b) }

// --- internal/colenc, internal/oplog -------------------------------------

func toWire(evs []Event) []wireEvent {
	out := make([]wireEvent, len(evs))
	for i, ev := range evs {
		var ps []colenc.ID
		if len(ev.Parents) > 0 {
			ps = make([]colenc.ID, len(ev.Parents))
			for j, p := range ev.Parents {
				ps[j] = colenc.ID{Agent: p.Agent, Seq: p.Seq}
			}
		}
		out[i] = wireEvent{ID: colenc.ID{Agent: ev.ID.Agent, Seq: ev.ID.Seq}, Parents: ps, Insert: ev.Insert, Pos: ev.Pos, Content: ev.Content}
	}
	return out
}

func colencEncode(evs []wireEvent) ([]byte, error) { return colenc.Encode(evs, colenc.Options{}) }
func colencDecode(b []byte) ([]wireEvent, error) {
	dec, err := colenc.Decode(b)
	if err != nil {
		return nil, err
	}
	return dec.Events, nil
}
func colencInspect(b []byte) (int, error) {
	info, err := colenc.Inspect(b)
	if err != nil {
		return 0, err
	}
	return info.NumEvents, nil
}
func buildLog(evs []wireEvent) (*opLog, error) { return colenc.BuildLog(evs) }
func logGraph(l *opLog) *graph                 { return l.Graph }

// --- internal/causal ------------------------------------------------------

// criticalBoundaries returns the boundary bitmap; the graph caches it, so
// time it on a freshly built log.
func criticalBoundaries(g *graph) []bool { return g.CriticalBoundaries() }

// graphFrontierAt is the version holding only the graph's first upto
// events; diffing the heads against it is the EventsSince question.
func graphFrontierAt(g *graph, upto int) causal.Frontier {
	lvs := make([]causal.LV, upto)
	for i := range lvs {
		lvs[i] = causal.LV(i)
	}
	return g.FrontierOf(lvs)
}
func graphDiff(g *graph, a, b causal.Frontier) int {
	onlyA, onlyB := g.Diff(a, b)
	return len(onlyA) + len(onlyB)
}
func graphFrontier(g *graph) causal.Frontier { return g.Frontier() }

type frontier = causal.Frontier

// --- internal/core, internal/rope ----------------------------------------

func replayRope(l *opLog) (*ropeT, error)        { return core.ReplayRope(l) }
func replayRopeUnitRef(l *opLog) (*ropeT, error) { return core.ReplayRopeUnitRef(l) }

// transformAll runs the walker with emit receiving each transformed op.
func transformAll(l *opLog, emit func(op xop)) error {
	return core.TransformAll(l, func(_ causal.LV, op core.XOp) { emit(op) })
}
func applyXOp(r *ropeT, op xop) error { return core.ApplyXOp(r, op) }
func newRope() *ropeT                 { return rope.New() }
func ropeFromString(s string) *ropeT  { return rope.NewFromString(s) }
func ropeString(r *ropeT) string      { return r.String() }
func ropeLen(r *ropeT) int            { return r.Len() }
func xopCopy(op xop) xop {
	op.Content = append([]rune(nil), op.Content...)
	return op
}

// --- reference algorithms (doc 0 rows only) ------------------------------

func otReplayText(l *opLog) (string, error) { return ot.ReplayText(l) }

// listcrdtReplay merges the whole log into the reference CRDT and returns
// it; the caller reads Text and holds it for the heap row.
func listcrdtReplay(l *opLog) (*listcrdt.Doc, error) {
	ops, err := listcrdt.FromLog(l)
	if err != nil {
		return nil, err
	}
	d := listcrdt.New()
	if err := d.Merge(ops); err != nil {
		return nil, err
	}
	return d, nil
}
func listcrdtText(d *listcrdt.Doc) string { return d.Text() }

// --- netsync --------------------------------------------------------------

func newPeerConn(c io.ReadWriter) *PeerConn { return netsync.NewPeerConn(c) }

// sendHello sends the v2 compact hello: a cold join when summary is nil, a
// summary resume otherwise.
func sendHello(pc *PeerConn, docID string, summary VersionSummary) error {
	return pc.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: summary})
}
func sendRaw(pc *PeerConn, batch []byte) error { return pc.SendRaw(batch) }

// recvEvents blocks for the next events frame and returns it decoded.
func recvEvents(pc *PeerConn) ([]Event, error) {
	f, err := pc.RecvFrame()
	if err != nil {
		return nil, err
	}
	if f.Kind != netsync.FrameEvents {
		return nil, errUnexpectedFrame
	}
	return f.Events, nil
}

func marshalSummary(s VersionSummary) []byte { return netsync.MarshalVersionSummary(s) }
func unmarshalSummary(b []byte) (VersionSummary, error) {
	return netsync.UnmarshalVersionSummary(b)
}

// readHello parses a hello off the wire (the server's half of the
// handshake, for the netsync.hello_roundtrip row).
func readHello(r io.Reader) (string, error) {
	h, err := netsync.ReadHello(r)
	return h.DocID, err
}

// --- store ----------------------------------------------------------------

func storeOptions(fs StoreFS) store.Options { return store.Options{FS: fs} }

func storeOpen(root, docID string, fs StoreFS) (*DocStore, error) {
	return store.Open(root, docID, "server", storeOptions(fs))
}
func storeOpenLazy(root, docID string, fs StoreFS) (*DocStore, error) {
	return store.OpenLazy(root, docID, "server", storeOptions(fs))
}
func storeIngest(ds *DocStore, evs []Event, raw []byte) (int, error) {
	return ds.IngestBatch(evs, raw)
}
func storeApply(ds *DocStore, evs []Event) error { _, err := ds.Apply(evs); return err }
func storeSync(ds *DocStore) error               { return ds.Sync() }
func storeSnapshot(ds *DocStore) error           { return ds.Snapshot() }
func storeCompact(ds *DocStore) error            { return ds.Compact() }
func storeMaterialize(ds *DocStore) error        { return ds.Materialize() }
func storeClose(ds *DocStore) error              { return ds.Close() }
func storeCrash(ds *DocStore) (*DocStore, error) { return ds.Crash() }
func storeNumEvents(ds *DocStore) int            { return ds.NumEvents() }
func storeDoc(ds *DocStore) *Doc                 { return ds.Doc() }
func storeDiskUsage(ds *DocStore) (snap, wal int64) {
	snap, wal, _ = ds.DiskUsage()
	return
}

// storeStream cuts the document and streams its blocks to send.
func storeStream(ds *DocStore, send func([]byte) error) (int, error) {
	cut, ok := ds.CutForServe()
	if !ok {
		return 0, errNoBlockCut
	}
	return ds.StreamBlocks(cut, send)
}

// newServer hosts root with the background work switched off: no timed
// unit may contain a group commit, a compaction or a scrub. The flush
// interval is an hour (Close still syncs), snapshots are never scheduled,
// and the handshake deadline (a timer per connection) is off.
func newServer(root string, fs StoreFS) (*Server, error) {
	return store.NewServer(root, store.ServerOptions{
		FlushInterval:    time.Hour,
		SnapshotEvery:    -1,
		HandshakeTimeout: -1,
		MaxOpenDocs:      1024,
		MaxJournalDocs:   4096,
		DocOptions:       store.Options{FS: fs},
	})
}
func serveConn(s *Server, c net.Conn) error   { return s.ServeConn(c) }
func serverMetrics(s *Server) MetricsSnapshot { return s.MetricsSnapshot() }
func serverClose(s *Server) error             { return s.Close() }
func serverFingerprint(s *Server, docID string) (fp uint64, err error) {
	err = s.With(docID, func(ds *DocStore) error {
		fp, err = ds.Fingerprint()
		return err
	})
	return fp, err
}

// --- internal/bufconn -----------------------------------------------------

func listen() *Listener { return bufconn.Listen(1 << 20) }

type osFS = store.OSFS
