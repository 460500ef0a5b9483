package store

import (
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"egwalker"
	"egwalker/internal/bufconn"
	"egwalker/internal/colenc"
	"egwalker/internal/metrics"
	"egwalker/netsync"
)

// singleEventFrames types n single-character inserts and returns each
// edit as its own marshalled legacy frame, with its event — the shape
// fan-out pushes for a live typing stream.
func singleEventFrames(t *testing.T, n int) (raws [][]byte, events [][]egwalker.Event) {
	t.Helper()
	doc := egwalker.NewDoc("ob-w")
	for i := 0; i < n; i++ {
		pre := doc.Version()
		if err := doc.Insert(doc.Len(), "x"); err != nil {
			t.Fatal(err)
		}
		evs, err := doc.EventsSince(pre)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := egwalker.MarshalEvents(evs)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
		events = append(events, evs)
	}
	return raws, events
}

func pushOK(o *outbox, raws [][]byte) bool {
	_, ok := o.push(raws)
	return ok
}

// TestOutboxEmptyQueueAccepts: an empty queue accepts even a frame far
// over every budget — oversized batches must make progress, and a peer
// with nothing queued is by definition not slow.
func TestOutboxEmptyQueueAccepts(t *testing.T) {
	var global metrics.Gauge
	var coalesced metrics.Counter
	o := newOutbox(16, 16, &global, &coalesced)
	big := make([]byte, 4096)
	if !pushOK(o, [][]byte{big}) {
		t.Fatal("empty outbox rejected an oversized frame")
	}
	if got := o.queuedBytes(); got != 4096 {
		t.Fatalf("queuedBytes = %d, want 4096", got)
	}
	if got := global.Load(); got != 4096 {
		t.Fatalf("global ledger = %d, want 4096", got)
	}
	// But the next push finds the queue over budget with nothing to
	// coalesce (these bytes are no event batch), so the peer must be severed.
	if pushOK(o, [][]byte{make([]byte, 8)}) {
		t.Fatal("over-budget uncoalescible outbox accepted another frame")
	}
	o.close(true)
	if got := global.Load(); got != 0 {
		t.Fatalf("ledger after close(drop) = %d, want 0", got)
	}
}

// TestOutboxCoalesceReprieve: a backlog of single-event frames that
// overruns the byte budget is coalesced — merged and re-marshalled
// smaller — instead of severing the peer, the eliminated frames are
// counted, and the drained bytes still decode to every queued event.
func TestOutboxCoalesceReprieve(t *testing.T) {
	const n = 300
	raws, _ := singleEventFrames(t, n)
	var global metrics.Gauge
	var coalesced metrics.Counter
	// ~10 bytes per single-event legacy frame: 300 frames (~3 KB) blow
	// a 2 KB budget around frame 200; the coalesced batch is far
	// smaller, so every push must be accepted.
	o := newOutbox(2048, 0, &global, &coalesced)
	for i := range raws {
		if !pushOK(o, [][]byte{raws[i]}) {
			t.Fatalf("push %d rejected: coalescing should have freed the budget", i)
		}
	}
	if coalesced.Load() == 0 {
		t.Fatal("no frames coalesced despite budget pressure")
	}
	if got := o.queuedBytes(); got > 2048 {
		t.Fatalf("queuedBytes = %d, over the 2048 budget", got)
	}
	if global.Load() != o.queuedBytes() {
		t.Fatalf("ledger %d != queued %d", global.Load(), o.queuedBytes())
	}

	drained, ok := o.drain(nil)
	if !ok {
		t.Fatal("drain reported closed")
	}
	if got := global.Load(); got != 0 {
		t.Fatalf("ledger after drain = %d, want 0", got)
	}
	var decoded int
	for _, raw := range drained {
		evs, err := egwalker.UnmarshalEventsAuto(raw)
		if err != nil {
			t.Fatalf("coalesced frame does not decode: %v", err)
		}
		decoded += len(evs)
	}
	if decoded != n {
		t.Fatalf("drained frames decode to %d events, want %d", decoded, n)
	}
}

// TestOutboxCoalescesUndecodedFrames: frames are queued as the encoded
// payloads they arrived as, with no events attached, and still coalesce —
// compact uploads pushed past the per-peer budget are decoded there and
// then, merged and re-marshalled, and what the writer drains decodes to
// exactly the pushed events, each once, in order.
func TestOutboxCoalescesUndecodedFrames(t *testing.T) {
	frames, _ := burstUploads(t, 300)
	var want []egwalker.Event
	total := 0
	for _, f := range frames {
		evs, err := egwalker.UnmarshalEventsAuto(f)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, evs...)
		total += len(f)
	}
	var global metrics.Gauge
	var coalesced metrics.Counter
	budget := int64(total * 3 / 5)
	o := newOutbox(budget, 0, &global, &coalesced)
	for i, f := range frames {
		before := o.depth()
		depth, ok := o.push([][]byte{f})
		if !ok {
			t.Fatalf("push %d rejected: coalescing should have freed the budget", i)
		}
		if depth != before {
			t.Fatalf("push %d reports depth %d, the queue held %d", i, depth, before)
		}
	}
	if coalesced.Load() == 0 {
		t.Fatal("no frames coalesced despite budget pressure")
	}
	if got := o.queuedBytes(); got > budget || got != global.Load() {
		t.Fatalf("queued %d bytes (ledger %d), budget %d", got, global.Load(), budget)
	}
	drained, ok := o.drain(nil)
	if !ok || len(drained) >= len(frames) {
		t.Fatalf("drained %d frames of %d pushed, ok=%v", len(drained), len(frames), ok)
	}
	var got []egwalker.Event
	for _, raw := range drained {
		if !colenc.Sniff(raw) {
			t.Fatal("a merged frame is not compact")
		}
		evs, err := egwalker.UnmarshalEventsAuto(raw)
		if err != nil {
			t.Fatalf("coalesced frame does not decode: %v", err)
		}
		got = append(got, evs...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drained frames decode to %d events, want the %d pushed, once each, in order", len(got), len(want))
	}

	o.close(true)
	if got := global.Load(); got != 0 {
		t.Fatalf("ledger after close(drop) = %d, want 0", got)
	}
}

// TestOutboxDrainRecyclesArray: the writer hands the slice it has sent
// back to drain; the queue continues in that array with the payloads it
// pointed at let go, so an outbox and its writer swap two arrays between
// them. An array grown by a backlog (over maxKeptQueue) is not kept.
func TestOutboxDrainRecyclesArray(t *testing.T) {
	var global metrics.Gauge
	var coalesced metrics.Counter
	o := newOutbox(0, 0, &global, &coalesced)
	frame := func(n int) [][]byte { return [][]byte{make([]byte, n)} }
	o.push(frame(1))
	o.push(frame(2))
	first, _ := o.drain(nil)
	o.push(frame(3))
	second, ok := o.drain(first)
	if !ok || len(second) != 1 || len(second[0]) != 3 {
		t.Fatalf("second drain: %d frames, ok=%v", len(second), ok)
	}
	for _, raw := range first[:cap(first)] {
		if raw != nil {
			t.Fatal("a sent payload is still referenced from the recycled array")
		}
	}
	o.push(frame(4))
	if &o.frames[0] != &first[:1][0] {
		t.Fatal("the queue did not continue in the array the writer handed back")
	}
	one := frame(5)
	if allocs := testing.AllocsPerRun(100, func() {
		o.push(one)
		second, _ = o.drain(second)
	}); allocs != 0 {
		t.Fatalf("push and drain of one frame: %.1f allocations, want 0", allocs)
	}
	o.push(one)
	o.drain(make([][]byte, 0, maxKeptQueue+1))
	if cap(o.frames) > maxKeptQueue {
		t.Fatalf("a %d-slot array was kept as the queue, cap %d", cap(o.frames), maxKeptQueue)
	}
	o.close(true)
	if got := global.Load(); got != 0 {
		t.Fatalf("ledger after close(drop) = %d, want 0", got)
	}
}

// TestOutboxGlobalCapShared: the server-wide cap is one ledger across
// outboxes — a second peer's push is refused when the first peer's
// backlog holds the global budget, and accepted again once it drains.
func TestOutboxGlobalCapShared(t *testing.T) {
	var global metrics.Gauge
	var coalesced metrics.Counter
	a := newOutbox(0, 1024, &global, &coalesced)
	b := newOutbox(0, 1024, &global, &coalesced)
	if !pushOK(a, [][]byte{make([]byte, 900)}) {
		t.Fatal("first push rejected")
	}
	if !pushOK(b, [][]byte{make([]byte, 64)}) {
		t.Fatal("b's first frame rejected (empty queue must accept)")
	}
	if pushOK(b, [][]byte{make([]byte, 200)}) {
		t.Fatal("b accepted a frame past the shared global cap")
	}
	if _, ok := a.drain(nil); !ok {
		t.Fatal("a.drain reported closed")
	}
	if !pushOK(b, [][]byte{make([]byte, 200)}) {
		t.Fatal("b rejected after the cap was freed")
	}
	a.close(true)
	b.close(true)
	if got := global.Load(); got != 0 {
		t.Fatalf("ledger after closes = %d, want 0", got)
	}
}

// TestOutboxGracefulCloseHandsOffBacklog: close(false) lets the writer
// drain what is queued (orderly unsubscribe ships the tail), and only
// the drain after that reports closed.
func TestOutboxGracefulCloseHandsOffBacklog(t *testing.T) {
	var global metrics.Gauge
	var coalesced metrics.Counter
	o := newOutbox(0, 0, &global, &coalesced)
	pushOK(o, [][]byte{make([]byte, 10), make([]byte, 20)})
	o.close(false)
	raws, ok := o.drain(nil)
	if !ok || len(raws) != 2 {
		t.Fatalf("graceful close: drain = %d frames, ok=%v; want 2, true", len(raws), ok)
	}
	if _, ok := o.drain(nil); ok {
		t.Fatal("second drain after close should report closed")
	}
	if got := global.Load(); got != 0 {
		t.Fatalf("ledger = %d, want 0", got)
	}
}

// TestSeverAccountingIdempotent: racing sever paths (fan-out overflow
// vs. connection teardown) can both try to sever the same peer; the
// map-membership guard must account it exactly once in PeersSevered
// and the Subscribers gauge.
func TestSeverAccountingIdempotent(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Millisecond})
	const docID = "sever-once"
	cs, ss := net.Pipe()
	defer cs.Close()
	serveOne(t, srv, ss)
	pc := netsync.NewPeerConn(cs)
	if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := pc.Recv(); err != nil { // initial empty catch-up
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Subscribers.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	srv.mu.Lock()
	e := srv.open[docID]
	srv.mu.Unlock()
	if e == nil {
		t.Fatal("document not open")
	}
	e.mu.Lock()
	if len(e.peers) != 1 {
		e.mu.Unlock()
		t.Fatalf("%d peers, want 1", len(e.peers))
	}
	for pid := range e.peers {
		e.severLocked(pid)
		e.severLocked(pid) // second sever must be a no-op
	}
	e.mu.Unlock()

	snap := srv.MetricsSnapshot()
	if snap.PeersSevered != 1 {
		t.Fatalf("PeersSevered = %d, want 1", snap.PeersSevered)
	}
	if snap.Subscribers != 0 {
		t.Fatalf("Subscribers = %d, want 0", snap.Subscribers)
	}
	if snap.SeverRate <= 0 {
		t.Fatal("SeverRate not derived from uptime")
	}
}

// TestOutboxDepthPeriodicSampling: OutboxDepth used to be sampled only
// on fan-out sends, so an idle-but-backlogged outbox was invisible.
// The flusher's periodic sweep must keep observing depths with no
// ingest happening at all.
func TestOutboxDepthPeriodicSampling(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: 10 * time.Millisecond})
	cs, ss := net.Pipe()
	defer cs.Close()
	serveOne(t, srv, ss)
	pc := netsync.NewPeerConn(cs)
	if err := pc.SendHello(netsync.Hello{DocID: "idle-doc", Compact: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := pc.Recv(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Subscribers.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	// No events are ever ingested, so every observation from here on is
	// the periodic sweep (roughly one per second of flusher ticks).
	base := srv.MetricsSnapshot().OutboxDepth.Count
	deadline = time.Now().Add(5 * time.Second)
	for srv.MetricsSnapshot().OutboxDepth.Count == base {
		if time.Now().After(deadline) {
			t.Fatal("idle outbox never sampled: periodic depth sweep missing")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFanoutThousandSubscribersBounded: 1000 subscribers on one hot
// document (in-memory connections — no fds), all draining, while a
// writer streams events. The server-wide outbox ledger must stay under
// the configured cap at every sample, no healthy peer may be severed,
// and every subscriber must receive every event.
func TestFanoutThousandSubscribersBounded(t *testing.T) {
	const subs = 1000
	const events = 30
	const totalCap = 1 << 20
	srv := newTestServer(t, ServerOptions{
		FlushInterval:      time.Millisecond,
		OutboxBytesPerPeer: 64 << 10,
		OutboxBytesTotal:   totalCap,
	})
	ln := bufconn.Listen(64 << 10)
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				srv.ServeConn(c)
			}()
		}
	}()

	const docID = "hot-doc"
	var received [subs]atomic.Int64
	conns := make([]net.Conn, subs)
	for i := 0; i < subs; i++ {
		c, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		pc := netsync.NewPeerConn(c)
		if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
			t.Fatal(err)
		}
		go func(i int) {
			for {
				evs, _, done, err := pc.Recv()
				if err != nil || done {
					return
				}
				received[i].Add(int64(len(evs)))
			}
		}(i)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for srv.Metrics().Subscribers.Load() != subs {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d subscribers registered", srv.Metrics().Subscribers.Load(), subs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.MetricsSnapshot().ConnCount; got != subs {
		t.Fatalf("conn_count = %d, want %d", got, subs)
	}

	// Writer: single-event batches, the worst case for per-frame
	// overhead (each fans out to 1000 outboxes).
	wc, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	wpc := netsync.NewPeerConn(wc)
	if err := wpc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := wpc.Recv(); err != nil {
		t.Fatal(err)
	}
	doc := egwalker.NewDoc("hot-w")
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < events; i++ {
			pre := doc.Version()
			if err := doc.Insert(doc.Len(), "y"); err != nil {
				sendErr <- err
				return
			}
			evs, err := doc.EventsSince(pre)
			if err == nil {
				err = wpc.SendEvents(evs)
			}
			if err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	// While the fan-out runs, the global ledger must respect the cap.
	var peakOutboxBytes int64
	done := false
	for !done {
		select {
		case err := <-sendErr:
			if err != nil {
				t.Fatalf("writer: %v", err)
			}
			done = true
		default:
			if b := srv.Metrics().OutboxBytes.Load(); b > peakOutboxBytes {
				peakOutboxBytes = b
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if peakOutboxBytes > totalCap {
		t.Fatalf("outbox_bytes peaked at %d, over the %d cap", peakOutboxBytes, totalCap)
	}

	deadline = time.Now().Add(60 * time.Second)
	for {
		var lagging int
		for i := range received {
			if received[i].Load() < events {
				lagging++
			}
		}
		if lagging == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d subscribers still missing events", lagging, subs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap := srv.MetricsSnapshot()
	if snap.PeersSevered != 0 {
		t.Fatalf("%d healthy subscribers severed", snap.PeersSevered)
	}
	if snap.OutboxBytes != 0 {
		t.Fatalf("outbox_bytes = %d after full drain, want 0", snap.OutboxBytes)
	}
	t.Logf("peak outbox_bytes %d (cap %d), coalesced_frames %d", peakOutboxBytes, totalCap, snap.CoalescedFrames)
}

// TestSlowReaderCoalesceThenResume is the end-to-end pressure story on
// the server: a reader draining slower than the offered load receives
// coalesced frames (its backlog merged into multi-event batches), is
// eventually severed when even the coalesced backlog overruns its byte
// budget, and then reconverges with an incremental resume.
func TestSlowReaderCoalesceThenResume(t *testing.T) {
	// 128 bytes: a dozen queued single-event legacy frames (~10 bytes
	// each) trigger coalescing, and a dead-stopped compact backlog
	// overflows once even the coalesced batch passes the budget.
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Millisecond, OutboxBytesPerPeer: 128})
	const docID = "slow-reader"

	// The slow reader is compact-capable, so its backlog coalesces into
	// the dense columnar encoding.
	slowCS, slowSS := net.Pipe()
	defer slowCS.Close()
	serveOne(t, srv, slowSS)
	slowDoc := egwalker.NewDoc("slow")
	slowPC := netsync.NewPeerConn(slowCS)
	if err := slowPC.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	// Phase 1: drain slowly — one frame every 8ms against a writer
	// pacing 40x faster, so each read gap queues ~40 events (~400
	// bytes, well past the budget and therefore coalesced) — for the
	// first 20 frames, counting how many arrive as multi-event
	// (coalesced) batches. Phase 2: dead-stop.
	var coalescedSeen atomic.Int64
	slowStopped := make(chan struct{})
	go func() {
		defer close(slowStopped)
		for i := 0; i < 20; i++ {
			evs, _, done, err := slowPC.Recv()
			if err != nil || done {
				return
			}
			if len(evs) > 1 {
				coalescedSeen.Add(1)
			}
			if _, err := slowDoc.Apply(evs); err != nil {
				return
			}
			time.Sleep(8 * time.Millisecond)
		}
	}()

	// The writer keeps single-event batches coming until the server
	// severs the slow reader — severing happens on push, so the load
	// must stay on until the backlog overflows.
	wcs, wss := net.Pipe()
	defer wcs.Close()
	serveOne(t, srv, wss)
	wdoc := egwalker.NewDoc("w")
	wpc := netsync.NewPeerConn(wcs)
	if err := wpc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := wpc.Recv(); err != nil {
		t.Fatal(err)
	}
	const maxEvents = 5000
	sent := 0
	for srv.Metrics().PeersSevered.Load() == 0 {
		if sent >= maxEvents {
			t.Fatalf("slow reader not severed after %d events", sent)
		}
		pre := wdoc.Version()
		if err := wdoc.Insert(wdoc.Len(), "z"); err != nil {
			t.Fatal(err)
		}
		evs, err := wdoc.EventsSince(pre)
		if err == nil {
			err = wpc.SendEvents(evs)
		}
		if err != nil {
			t.Fatal(err)
		}
		sent++
		time.Sleep(200 * time.Microsecond)
	}
	<-slowStopped

	snap := srv.MetricsSnapshot()
	if snap.PeersSevered != 1 {
		t.Fatalf("%d peers severed, want only the slow reader", snap.PeersSevered)
	}
	if snap.CoalescedFrames == 0 {
		t.Fatal("slow reader's backlog was never coalesced before the sever")
	}
	if coalescedSeen.Load() == 0 {
		t.Fatal("slow reader never received a coalesced (multi-event) frame")
	}

	// The severed reader drains whatever reached its connection, then
	// reconverges via incremental resume.
	slowCS.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		evs, _, done, err := slowPC.Recv()
		if err != nil || done {
			break
		}
		if _, err := slowDoc.Apply(evs); err != nil {
			break
		}
	}
	before := slowDoc.NumEvents()
	if before >= sent {
		t.Fatalf("setup: slow reader already has all %d events", sent)
	}
	rcs, rss := net.Pipe()
	defer rcs.Close()
	serveOne(t, srv, rss)
	rpc := netsync.NewPeerConn(rcs)
	if err := rpc.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: slowDoc.Summary()}); err != nil {
		t.Fatal(err)
	}
	got := recvInto(t, rpc, slowDoc, sent)
	if want := sent - before; got != want {
		t.Fatalf("resume shipped %d events, want the missing %d", got, want)
	}
	if slowDoc.Text() != wdoc.Text() {
		t.Fatal("severed reader failed to reconverge")
	}
}
