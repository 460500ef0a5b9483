package store

import (
	"sync"

	"egwalker"
	"egwalker/internal/metrics"
)

// outbox is one subscriber's queue of marshalled fan-out frames,
// bounded by bytes instead of frame count. The old design — a 256-slot
// channel per peer — bounded nothing that matters: 256 frames of 16 MiB
// each is 4 GiB of queued batches per slow peer, and at 10k connections
// the channel backing arrays alone were ~20 MB of idle memory. The
// outbox instead tracks queued bytes against two budgets: a per-peer
// budget (one slow reader may buffer this much) and a server-wide cap
// shared by every outbox (the global ledger is the server's
// OutboxBytes gauge, which makes the bound observable for free).
//
// When a push would overrun either budget, the queue first coalesces:
// the queued frames — encoded batches, as they were uploaded — are
// decoded, merged and re-marshalled as one batch. For a slow-but-alive
// peer this is a real reprieve, not just bookkeeping — merging N small
// batches amortizes per-frame headers, and run-length encoding
// compresses adjacent edits from the same agents (a compact-encoded merge of hundreds of
// single-keystroke batches is often ~10x smaller than their sum). Only
// if the queue is still over budget after coalescing is the peer
// severed; it reconnects with a summary hello and catches up
// incrementally, which costs far less than the backlog it was never
// going to drain.
//
// Locking: outbox has its own mutex and is pushed under the entry's
// fan-out lock (entry.mu -> outbox.mu); the drain side takes only
// outbox.mu. The per-peer writer goroutine blocks in drain on the
// condition variable, wakes on push or close, and ships everything
// queued as one writev-style batch (netsync.SendRawBatch: one flush
// for the whole burst).
type outbox struct {
	mu   sync.Mutex
	cond sync.Cond

	frames [][]byte // queued payloads, each an event batch in an encoding the peer decodes
	bytes  int64    // sum of their lengths
	closed bool

	peerBudget int64
	globalCap  int64
	global     *metrics.Gauge   // server-wide queued-bytes ledger (OutboxBytes)
	coalesced  *metrics.Counter // frames eliminated by merging (CoalescedFrames)
}

func newOutbox(peerBudget, globalCap int64, global *metrics.Gauge, coalesced *metrics.Counter) *outbox {
	o := &outbox{
		peerBudget: peerBudget,
		globalCap:  globalCap,
		global:     global,
		coalesced:  coalesced,
	}
	o.cond.L = &o.mu
	return o
}

// push queues frames for the writer and returns how many were queued
// before them (the OutboxDepth sample, taken under the lock push holds
// anyway). It reports false when the peer is over budget even after
// coalescing — the caller must sever it. A closed outbox absorbs pushes
// silently (the peer is already on its way out).
//
// An empty queue always accepts, whatever the budgets say: a frame
// larger than the per-peer budget must still make progress, and a peer
// with nothing queued is by definition not slow.
func (o *outbox) push(raws [][]byte) (depth int, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, true
	}
	depth = len(o.frames)
	var add int64
	for _, r := range raws {
		add += int64(len(r))
	}
	if depth > 0 && o.overLocked(add) {
		o.coalesceLocked()
		if o.overLocked(add) {
			return depth, false
		}
	}
	o.frames = append(o.frames, raws...)
	o.bytes += add
	o.global.Add(add)
	o.cond.Signal()
	return depth, true
}

// overLocked reports whether accepting add more bytes would overrun
// the per-peer budget or the server-wide cap.
func (o *outbox) overLocked(add int64) bool {
	if o.peerBudget > 0 && o.bytes+add > o.peerBudget {
		return true
	}
	if o.globalCap > 0 && o.global.Load()+add > o.globalCap {
		return true
	}
	return false
}

// coalesceLocked merges the queue into one batch: every frame is decoded
// (here, under pressure, and nowhere else on the fan-out path), the
// events are re-marshalled by egwalker.MarshalBatches, and the merge is
// kept only when it is actually smaller (a merge that grows — rare, but
// possible across chunking boundaries — is discarded).
func (o *outbox) coalesceLocked() {
	if len(o.frames) < 2 {
		return
	}
	var evs []egwalker.Event
	for _, raw := range o.frames {
		batch, err := egwalker.UnmarshalEventsAuto(raw)
		if err != nil {
			return // not a frame this server validated; leave the queue be
		}
		evs = append(evs, batch...)
	}
	chunks, err := egwalker.MarshalBatches(evs)
	var newBytes int64
	for _, c := range chunks {
		newBytes += int64(len(c))
	}
	if err != nil || newBytes >= o.bytes {
		return
	}
	o.coalesced.Add(int64(len(o.frames) - len(chunks)))
	o.global.Add(newBytes - o.bytes)
	o.bytes = newBytes
	clear(o.frames)
	o.frames = append(o.frames[:0], chunks...)
}

// maxKeptQueue is the longest queue array drain recycles; a longer one
// (a slow peer's backlog) is left to the collector.
const maxKeptQueue = 256

// drain blocks until frames are queued (returning them all, emptying
// the queue) or the outbox is closed with nothing left (returning
// ok=false — the writer's signal to exit). A graceful close hands the
// writer whatever is still queued before reporting closed. sent is the
// slice the previous drain returned, done with: the queue continues in
// its array, so a writer and its outbox swap two arrays between them
// instead of allocating one per wake.
func (o *outbox) drain(sent [][]byte) ([][]byte, bool) {
	if cap(sent) > maxKeptQueue {
		sent = nil
	}
	clear(sent)
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.frames) == 0 && !o.closed {
		o.cond.Wait()
	}
	if len(o.frames) == 0 {
		return nil, false
	}
	raws := o.frames
	o.frames = sent[:0]
	o.global.Add(-o.bytes)
	o.bytes = 0
	return raws, true
}

// close marks the outbox finished and wakes the writer. With drop,
// queued frames are discarded immediately (the sever path: the peer
// will resume-reconnect, so its backlog is garbage); without, the
// writer drains what remains before exiting (orderly unsubscribe).
// Idempotent, and a later close(true) after a graceful close still
// discards — the writer-error path relies on that to release the
// ledger when the connection dies mid-drain.
func (o *outbox) close(drop bool) {
	o.mu.Lock()
	o.closed = true
	if drop && len(o.frames) > 0 {
		o.global.Add(-o.bytes)
		o.bytes = 0
		o.frames = nil
	}
	o.cond.Broadcast()
	o.mu.Unlock()
}

// depth reports how many frames are queued (the flusher's periodic
// OutboxDepth sample: an idle-but-full outbox is visible here even
// though no push is touching it).
func (o *outbox) depth() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.frames)
}

// queuedBytes reports the queue's current byte occupancy.
func (o *outbox) queuedBytes() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.bytes
}
