package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Queueing-dependent numbers and one-shot counts of the traced run. The
// pipelined and open-loop rows are diagnostics, never gated: with work
// queued behind a shared two-core box they measured 15–20 % apart from run
// to run. All of them use document 0's fan-out directory.

const (
	openLoopRate = 2000            // bursts per second
	refBudget    = 2 * time.Second // per call of a reference algorithm
)

// diagSizes are the one-shot diagnostics' sizes; the smoke tests shrink
// them.
type diagSizes struct {
	idleConns      int
	openLoopBursts int // at openLoopRate: 4000 bursts are two seconds
	pipelinedRuns  int
}

var defaultDiagSizes = diagSizes{idleConns: 1000, openLoopBursts: 4000, pipelinedRuns: 5}

// freshHost copies document fx's directory under a new root and hosts it.
func freshHost(c *corpusFixtures, workRoot, name string, fx *fixture) (*host, string, error) {
	root := filepath.Join(workRoot, name)
	if err := copyDocDir(c.fs, c.popRoot, root, fx.docID, fx.docID); err != nil {
		return nil, "", err
	}
	h, err := startHost(root, c.fs)
	return h, root, err
}

// idleConnHeap is the retained heap of conns subscribers parked on one
// document, per connection. Both ends live in this process, so the client's
// PeerConn buffers are in the number; goroutine stacks are not (they are
// not heap).
func idleConnHeap(c *corpusFixtures, workRoot string, conns int) (float64, MetricsSnapshot, error) {
	fx := c.docs[0]
	h, root, err := freshHost(c, workRoot, "diag-idle", fx)
	if err != nil {
		return 0, MetricsSnapshot{}, err
	}
	defer c.fs.RemoveAll(root)
	// One connection first, so the document's own state is in the baseline.
	if _, err := joinCovered(h, fx.docID, fx.summary); err != nil {
		h.close()
		return 0, MetricsSnapshot{}, err
	}
	base := retainedHeap()
	for i := 0; i < conns; i++ {
		if _, err := joinCovered(h, fx.docID, fx.summary); err != nil {
			h.close()
			return 0, MetricsSnapshot{}, err
		}
	}
	after := retainedHeap()
	snap, err := h.close()
	return float64(after-base) / float64(conns), snap, err
}

// journalDocHeap is the retained heap of every document of the corpus
// opened journal-only (no Doc built), per document.
func journalDocHeap(c *corpusFixtures) (float64, error) {
	base := retainedHeap()
	stores := make([]*DocStore, 0, len(c.docs))
	defer func() {
		for _, ds := range stores {
			storeClose(ds)
		}
	}()
	for _, fx := range c.docs {
		ds, err := storeOpenLazy(c.popRoot, fx.docID, c.fs)
		if err != nil {
			return 0, err
		}
		stores = append(stores, ds)
	}
	after := retainedHeap()
	runtime.KeepAlive(stores)
	return float64(after-base) / float64(len(c.docs)), nil
}

// streamSub receives a stream of bursts whose frames the server may have
// merged: it counts events, and stamps each scripted burst when its last
// event has arrived.
type streamSub struct {
	p      *peer
	evs    []Event
	doneNs []int64 // per burst
	err    error
}

// stream is a writer and streamSubs on one document, for the pipelined and
// open-loop diagnostics.
type stream struct {
	writer *peer
	subs   []*streamSub
	ends   []int // cumulative events after each burst
	left   atomic.Int64
	doneAt atomic.Int64 // when the last event reached the last subscriber
	done   chan struct{}
	wg     sync.WaitGroup
}

func newStream(h *host, fx *fixture, bursts []fanoutBurst, subs int) (*stream, error) {
	s := &stream{done: make(chan struct{})}
	total := 0
	for _, b := range bursts {
		total += b.n
		s.ends = append(s.ends, total)
	}
	s.left.Store(int64(total * subs))
	var err error
	if s.writer, err = joinCovered(h, fx.docID, fx.summary); err != nil {
		return nil, err
	}
	for i := 0; i < subs; i++ {
		p, err := joinCovered(h, fx.docID, fx.summary)
		if err != nil {
			return nil, err
		}
		sub := &streamSub{p: p, doneNs: make([]int64, len(bursts))}
		s.subs = append(s.subs, sub)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			next := 0
			for {
				evs, err := recvEvents(p.pc)
				if err != nil {
					if err != io.EOF {
						sub.err = err
					}
					return
				}
				now := nowNs()
				sub.evs = append(sub.evs, evs...)
				for next < len(s.ends) && len(sub.evs) >= s.ends[next] {
					sub.doneNs[next] = now
					next++
				}
				if s.left.Add(-int64(len(evs))) == 0 {
					s.doneAt.Store(now)
					close(s.done)
				}
			}
		}()
	}
	return s, nil
}

// finish waits for the last event (or a timeout), hangs up and checks that
// every subscriber decoded exactly the scripted events in order.
func (s *stream) finish(wantHash uint64) error {
	var err error
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("stream: %d events still missing after 30 s", s.left.Load())
	}
	s.writer.hangUp()
	for _, sub := range s.subs {
		sub.p.hangUp()
	}
	s.wg.Wait()
	if err != nil {
		return err
	}
	for _, sub := range s.subs {
		if sub.err != nil {
			return sub.err
		}
		if hashEvents(sub.evs) != wantHash {
			return fmt.Errorf("stream: a subscriber decoded other events than were sent")
		}
	}
	return nil
}

func scriptHash(bursts []fanoutBurst) (uint64, int, error) {
	var all []Event
	for _, b := range bursts {
		evs, err := unmarshalAuto(b.raw)
		if err != nil {
			return 0, 0, err
		}
		all = append(all, evs...)
	}
	return hashEvents(all), len(all), nil
}

// pipelined sends document 0's whole fan-out script back to back and
// reports events per second until all subscribers hold it: the median of
// the runs, with the quartiles.
func pipelined(c *corpusFixtures, workRoot string, runs int, snapInto *MetricsSnapshot) (median, q1, q3 float64, err error) {
	fx := c.docs[0]
	want, events, err := scriptHash(fx.fanout)
	if err != nil {
		return 0, 0, 0, err
	}
	var rates []float64
	for run := 0; run < runs; run++ {
		h, root, err := freshHost(c, workRoot, fmt.Sprintf("diag-pipe-%d", run), fx)
		if err != nil {
			return 0, 0, 0, err
		}
		s, err := newStream(h, fx, fx.fanout, fanoutSubs)
		if err == nil {
			start := nowNs()
			for _, b := range fx.fanout {
				if err = sendRaw(s.writer.pc, b.raw); err != nil {
					break
				}
			}
			if err == nil {
				if err = s.finish(want); err == nil {
					rates = append(rates, float64(events)/(float64(s.doneAt.Load()-start)/1e9))
				}
			}
		}
		snap, cerr := h.close()
		c.fs.RemoveAll(root)
		if err != nil {
			return 0, 0, 0, err
		}
		if cerr != nil {
			return 0, 0, 0, cerr
		}
		addCounters(snapInto, snap)
	}
	sort.Float64s(rates)
	return rates[len(rates)/2], rates[len(rates)/4], rates[len(rates)*3/4], nil
}

// openLoop sends bursts on a fixed schedule whatever the server does, and
// times each burst from when it was due until the last subscriber holds
// it. It also reports how late the generator itself ran.
func openLoop(c *corpusFixtures, workRoot string, bursts []fanoutBurst, snapInto *MetricsSnapshot) (p50, p99, lateP99 float64, err error) {
	fx := c.docs[0]
	want, _, err := scriptHash(bursts)
	if err != nil {
		return 0, 0, 0, err
	}
	h, root, err := freshHost(c, workRoot, "diag-open", fx)
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.fs.RemoveAll(root)
	s, err := newStream(h, fx, bursts, fanoutSubs)
	if err != nil {
		h.close()
		return 0, 0, 0, err
	}
	gap := int64(time.Second) / openLoopRate
	start := nowNs() + int64(time.Millisecond)
	late := make([]float64, len(bursts))
	for i, b := range bursts {
		due := start + int64(i)*gap
		for {
			wait := due - nowNs()
			if wait <= 0 {
				break
			}
			if wait > int64(200*time.Microsecond) {
				time.Sleep(time.Duration(wait) - 100*time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
		late[i] = float64(nowNs()-due) / 1e3
		if err = sendRaw(s.writer.pc, b.raw); err != nil {
			break
		}
	}
	if err == nil {
		err = s.finish(want)
	}
	snap, cerr := h.close()
	if err != nil {
		return 0, 0, 0, err
	}
	if cerr != nil {
		return 0, 0, 0, cerr
	}
	addCounters(snapInto, snap)
	lat := make([]float64, len(bursts))
	for i := range bursts {
		var last int64
		for _, sub := range s.subs {
			last = max(last, sub.doneNs[i])
		}
		lat[i] = float64(last-(start+int64(i)*gap)) / 1e3
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	pct := func(v []float64, p float64) float64 { return v[min(int(float64(len(v))*p), len(v)-1)] }
	return pct(lat, 0.50), pct(lat, 0.99), pct(late, 0.99), nil
}

// references runs the paper's baselines on document 0 — OT, the reference
// list CRDT and the per-unit reference walker — once each, and checks that
// they produce Eg-walker's text. A reference that takes longer than
// refBudget fails the run: the frozen corpora keep all three well inside it
// (OT on diverged, the slowest, takes a sixth), and a number for a prefix of
// the document would not be the row the paper's ratios need.
func references(c *corpusFixtures, ls *layerSet, sc *script) error {
	fx := c.docs[0]
	l, err := buildLog(toWire(fx.events))
	if err != nil {
		return err
	}
	eg, err := replayRope(l)
	if err != nil {
		return err
	}
	want := ropeString(eg)
	refs := []struct {
		name string
		run  func() (text string, keep any, err error)
	}{
		{"ot.replay_ns_per_event", func() (string, any, error) {
			text, err := otReplayText(l)
			return text, nil, err
		}},
		{"listcrdt.replay_ns_per_event", func() (string, any, error) {
			d, err := listcrdtReplay(l)
			if err != nil {
				return "", nil, err
			}
			return listcrdtText(d), d, nil
		}},
		{"core.replay_unitref_ns_per_event", func() (string, any, error) {
			r, err := replayRopeUnitRef(l)
			if err != nil {
				return "", nil, err
			}
			return ropeString(r), nil, nil
		}},
	}
	for _, rf := range refs {
		base := retainedHeap()
		start := time.Now()
		got, keep, err := rf.run()
		spent := time.Since(start)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", rf.name, fx.docID, err)
		}
		if spent > refBudget {
			return fmt.Errorf("%s on %s took %v, over its budget of %v", rf.name, fx.docID, spent, refBudget)
		}
		if keep != nil {
			ls.set("listcrdt.steady_heap_bytes_per_event", float64(retainedHeap()-base)/float64(fx.n), "B/event")
			runtime.KeepAlive(keep)
		}
		sc.check(got == want, "%s: %s replays the document to another text than Eg-walker", fx.docID, rf.name)
		ls.set(rf.name, float64(spent.Nanoseconds())/float64(fx.n), "ns/event")
	}
	return nil
}
