package store

import (
	"fmt"
	"time"
)

// closeDrainTimeout bounds how long Close waits for in-flight
// connections and appends to release their documents before closing
// the stores anyway.
const closeDrainTimeout = 5 * time.Second

// acquire pins the document's entry, opening it (journal-only when
// possible) if it is not open. The disk work happens outside the
// server lock — a cold open of one large document must not stall
// appends to every other document. An entry found opening or closing is
// waited for, then looked up again: concurrent acquires share one open,
// and an acquire never opens a document whose evicted store has not yet
// closed (and released its directory lock). Callers must release.
func (s *Server) acquire(docID string) (*entry, error) {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, fmt.Errorf("store: server closed")
		}
		e, ok := s.open[docID]
		if !ok {
			break
		}
		if e.life == entryOpen {
			e.refs++
			s.lru.MoveToFront(e.elem)
			s.mu.Unlock()
			return e, nil
		}
		moved := e.moved
		s.mu.Unlock()
		<-moved
		s.mu.Lock()
	}
	e := &entry{id: docID, moved: make(chan struct{}), srv: s, refs: 1}
	e.elem = s.lru.PushFront(e)
	s.open[docID] = e
	s.metrics.OpenDocs.Set(int64(s.lru.Len()))
	s.mu.Unlock()

	start := time.Now()
	opts := s.opts.DocOptions
	opts.metrics = s.metrics
	ds, err := OpenLazy(s.root, docID, s.opts.Agent, opts)
	s.mu.Lock()
	if err == nil && s.closed {
		ds.Close()
		ds, err = nil, fmt.Errorf("store: server closed")
	}
	if err != nil {
		delete(s.open, docID)
		s.lru.Remove(e.elem)
		s.metrics.OpenDocs.Set(int64(s.lru.Len()))
		s.mu.Unlock()
		close(e.moved)
		return nil, err
	}
	e.ds, e.life = ds, entryOpen
	s.metrics.ColdOpens.Inc()
	s.metrics.OpenNs.Observe(time.Since(start).Nanoseconds())
	demat, victims := s.evictLocked()
	s.mu.Unlock()
	close(e.moved)
	s.noteQuarantine(e, true)
	s.applyEvictions(demat, victims)
	return e, nil
}

func (s *Server) release(e *entry) {
	s.mu.Lock()
	e.refs--
	demat, victims := s.evictLocked()
	s.mu.Unlock()
	s.applyEvictions(demat, victims)
}

// evictLocked picks eviction work and returns it for the caller to
// perform after dropping s.mu (dematerializing syncs, closing fsyncs —
// disk work must not stall the whole server). Two tiers: documents
// holding a document in memory beyond MaxOpenDocs are dematerialized
// (LRU-idle first; each is pinned so it cannot be closed underneath
// the demat); documents open beyond MaxJournalDocs are set closing.
// Pinned documents are skipped, so both populations may transiently
// exceed their caps.
func (s *Server) evictLocked() (demat, victims []*entry) {
	over := s.metrics.MaterializedDocs.Load() - int64(s.opts.MaxOpenDocs)
	if over > 0 {
		for el := s.lru.Back(); el != nil && over > 0; el = el.Prev() {
			if e := el.Value.(*entry); e.refs == 0 && e.life == entryOpen && e.ds.loadState().inMemory() {
				e.refs++ // released by applyEvictions
				demat = append(demat, e)
				over--
			}
		}
	}
	for s.lru.Len() > s.opts.MaxJournalDocs {
		var victim *entry
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry); e.refs == 0 && e.life == entryOpen {
				victim = e
				break
			}
		}
		if victim == nil {
			break
		}
		s.closingLocked(victim)
		victims = append(victims, victim)
	}
	if n := len(demat) + len(victims); n > 0 {
		s.metrics.Evictions.Add(int64(n))
	}
	return demat, victims
}

// closingLocked sets an idle open entry closing: out of the LRU, but in
// the open set until closeEntry has closed its store.
func (s *Server) closingLocked(e *entry) {
	e.life, e.moved = entryClosing, make(chan struct{})
	s.lru.Remove(e.elem)
	s.metrics.OpenDocs.Set(int64(s.lru.Len()))
}

// closeEntry closes a closing entry's store, then drops the entry from
// the open set and wakes the acquires waiting for it.
func (s *Server) closeEntry(e *entry) {
	e.ds.Close()
	s.mu.Lock()
	delete(s.open, e.id) // no other entry for the id: acquire waits for this one
	s.mu.Unlock()
	close(e.moved)
}

// applyEvictions performs eviction work outside s.mu: closes fully
// evicted stores and dematerializes cache-evicted ones. A document
// that refuses to dematerialize (buffered causal gap, sticky write
// error, quarantine) is fully closed instead, unless someone
// re-acquired it meanwhile.
func (s *Server) applyEvictions(demat, victims []*entry) {
	for _, e := range victims {
		s.closeEntry(e)
	}
	for _, e := range demat {
		if err := e.ds.dematerialize(); err != nil {
			s.mu.Lock()
			e.refs--
			if e.refs > 0 || s.closed {
				s.mu.Unlock()
				continue
			}
			s.closingLocked(e)
			s.mu.Unlock()
			s.closeEntry(e)
			continue
		}
		s.release(e) // may demat/close the next-colder entry
	}
}

// flusher is the group-commit loop: one fsync per open document per
// interval, amortizing durability across every append in the window.
// It runs even when FlushInterval is negative (per-commit fsync mode,
// where Sync below is a no-op) because it is also what feeds
// compaction pressure to the background compactor.
func (s *Server) flusher() {
	defer s.wg.Done()
	interval := s.opts.FlushInterval
	if interval < 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	// Outbox depths are also sampled on every fan-out send, but a send
	// that never happens samples nothing: an idle-but-full outbox (the
	// writer stalled, no new ingest on that document) was invisible.
	// Piggyback a periodic sweep on the flusher, roughly once a second.
	sampleEvery := int(time.Second / interval)
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	for ticks := 0; ; {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.flushOnce()
			if ticks++; ticks%sampleEvery == 0 {
				s.sampleOutboxes()
			}
		}
	}
}

// sampleOutboxes records every live subscriber's outbox depth, so
// queues that are deep but quiescent still show up in OutboxDepth.
func (s *Server) sampleOutboxes() {
	for _, e := range s.pinOpen() {
		e.mu.Lock()
		for _, p := range e.peers {
			s.metrics.OutboxDepth.Observe(int64(p.ob.depth()))
		}
		e.mu.Unlock()
		s.release(e)
	}
}

// pinOpen pins every open document (one still opening or already
// closing is skipped): the caller releases each entry when done with it.
func (s *Server) pinOpen() []*entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	pinned := make([]*entry, 0, len(s.open))
	for _, e := range s.open {
		if e.life == entryOpen {
			e.refs++
			pinned = append(pinned, e)
		}
	}
	return pinned
}

func (s *Server) flushOnce() {
	for _, e := range s.pinOpen() {
		// A failed fsync turns the DocStore fail-stop (sticky write
		// error); surface it here too so the operator learns before the
		// next append bounces.
		// Drain the commit counter before the fsync so the batch size
		// reflects what this fsync makes durable (events landing during
		// the fsync are attributed to the next window).
		batch := e.ds.takeUnsyncedEvents()
		start := time.Now()
		err := e.ds.Sync()
		s.metrics.FsyncNs.Observe(time.Since(start).Nanoseconds())
		if err != nil {
			s.metrics.FsyncErrors.Inc()
			s.logf("store: fsync %q: %v", e.id, err)
		} else if batch > 0 && !s.opts.DocOptions.SyncEveryCommit {
			// In per-commit-fsync mode every commit fsyncs itself and
			// Sync here is a no-op: the amortization is 1 by
			// construction, so recording the window total would invert
			// the signal.
			s.metrics.CommitBatchEvents.Observe(int64(batch))
		}
		if s.opts.SnapshotEvery > 0 && e.ds.unsnapshottedEvents() >= s.opts.SnapshotEvery {
			s.scheduleCompact(e) // takes its own pin
		}
		s.release(e)
	}
}

// scheduleCompact hands a document to the background compactor, at
// most one outstanding request per document.
func (s *Server) scheduleCompact(e *entry) {
	s.mu.Lock()
	if s.closed || e.compacting {
		s.mu.Unlock()
		return
	}
	e.compacting = true
	e.refs++
	s.mu.Unlock()
	select {
	case s.compactCh <- e:
	default:
		// Compactor saturated; retry next flush. The rollback goes
		// through release so the unpin runs eviction like any other —
		// an inline refs-- here once left over-cap documents pinned
		// until some unrelated release happened by.
		s.mu.Lock()
		e.compacting = false
		s.mu.Unlock()
		s.release(e)
	}
}

func (s *Server) compactor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case e := <-s.compactCh:
			start := time.Now()
			if err := e.ds.Compact(); err != nil {
				s.logf("store: compacting %q: %v", e.id, err)
			} else {
				s.metrics.Compactions.Inc()
				s.metrics.CompactNs.Observe(time.Since(start).Nanoseconds())
			}
			s.mu.Lock()
			e.compacting = false
			s.mu.Unlock()
			s.release(e)
		}
	}
}

// Close stops the background loops, severs live peer connections, and
// — after in-flight work has drained (bounded wait) — syncs and
// closes every open document. Closing a store out from under an
// in-flight Apply was a real race; Close now waits for every pin to
// release (severed connections release theirs promptly) before
// touching the stores.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()

	// Queued compactions each hold a pin the stopped compactor will
	// never release.
drainQueue:
	for {
		select {
		case e := <-s.compactCh:
			s.mu.Lock()
			e.compacting = false
			e.refs--
			s.mu.Unlock()
		default:
			break drainQueue
		}
	}
drain:
	for deadline := time.Now().Add(closeDrainTimeout); ; {
		s.mu.Lock()
		busy := 0
		for _, e := range s.open {
			if e.refs > 0 {
				busy++
			}
			e.mu.Lock()
			for _, p := range e.peers {
				severConn(p.conn)
			}
			e.mu.Unlock()
		}
		s.mu.Unlock()
		if busy == 0 || time.Now().After(deadline) {
			break drain
		}
		time.Sleep(5 * time.Millisecond)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, e := range s.open {
		if e.life == entryOpening {
			continue // in-flight opener observes s.closed and cleans up
		}
		if e.refs > 0 {
			s.logf("store: closing %q with %d refs still held", e.id, e.refs)
		}
		if cerr := e.ds.Close(); err == nil {
			err = cerr
		}
	}
	s.open = map[string]*entry{}
	s.lru.Init()
	s.metrics.OpenDocs.Set(0)
	return err
}
