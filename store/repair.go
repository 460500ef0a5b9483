package store

import (
	"fmt"
	"sort"
	"time"

	"egwalker"
)

// noteQuarantine adds e's document to the quarantine set if its store is
// quarantined, and tells OnQuarantine: acquire calls it after an open,
// scrubPass after a scrub quarantined, with no lock held. It reads the
// store's state under s.mu, where RepairDoc lifts a quarantine after its
// repair, so a repair that lands first stands. The damage an open
// salvaged counts toward corrupt_blocks once, not again on a reopen.
func (s *Server) noteQuarantine(e *entry, opened bool) {
	s.mu.Lock()
	q, reason := e.ds.Quarantined()
	if !q || s.closed {
		s.mu.Unlock()
		return
	}
	_, known := s.quarantined[e.id]
	s.quarantined[e.id] = reason
	s.metrics.QuarantinedDocs.Set(int64(len(s.quarantined)))
	s.mu.Unlock()
	if !known {
		if opened {
			s.metrics.CorruptBlocks.Add(int64(e.ds.Salvage().CorruptBlocks))
		}
		s.logf("store: quarantined %q: %v", e.id, reason)
	}
	if s.opts.OnQuarantine != nil {
		s.opts.OnQuarantine(e.id, reason)
	}
}

// IsQuarantined reports whether the document is currently quarantined.
func (s *Server) IsQuarantined(docID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.quarantined[docID]
	return ok
}

// QuarantinedDocIDs lists the currently quarantined documents — what a
// cluster node's repair loop re-enqueues every anti-entropy tick.
func (s *Server) QuarantinedDocIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.quarantined))
	for id := range s.quarantined {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// QuarantinedCount reports how many documents are quarantined — the
// degraded-health signal egserve's /healthz surfaces.
func (s *Server) QuarantinedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.quarantined)
}

// RepairDoc rebuilds a quarantined document and re-admits it. fetch,
// when non-nil, is handed the salvaged prefix's version summary and
// must return the exact diff from a live replica (the events the
// summary does not cover); nil fetch performs a salvage-only repair —
// single-node operation keeps the valid prefix and the loss is
// reported in the returned RepairInfo. On success the repaired diff is
// fanned out to the document's live subscribers and the quarantine
// flag clears.
func (s *Server) RepairDoc(docID string, fetch func(egwalker.VersionSummary) ([]egwalker.Event, error)) (RepairInfo, error) {
	e, err := s.acquire(docID)
	if err != nil {
		return RepairInfo{}, err
	}
	defer s.release(e)
	if q, _ := e.ds.Quarantined(); !q {
		return RepairInfo{}, fmt.Errorf("store: %s is not quarantined", docID)
	}
	var extra []egwalker.Event
	if fetch != nil {
		sum, err := e.ds.Summary()
		if err != nil {
			return RepairInfo{}, err
		}
		if extra, err = fetch(sum); err != nil {
			s.metrics.RepairFailures.Inc()
			return RepairInfo{}, fmt.Errorf("store: repair fetch for %s: %w", docID, err)
		}
	}
	// Repair and fan-out under the entry lock, so a subscriber joining
	// mid-repair either sees the repaired history in its catch-up or
	// receives the diff through its outbox — never neither.
	e.mu.Lock()
	info, err := e.ds.Repair(extra)
	if err != nil {
		e.mu.Unlock()
		s.metrics.RepairFailures.Inc()
		return info, err
	}
	if len(extra) > 0 {
		if ferr := e.fanoutLocked(&batch{events: extra}, -1); ferr != nil {
			s.logf("store: fanning out repair diff for %q: %v", docID, ferr)
		}
	}
	e.mu.Unlock()
	s.metrics.Repairs.Inc()
	s.metrics.RepairEvents.Add(int64(info.Fetched))
	s.mu.Lock()
	delete(s.quarantined, docID)
	s.metrics.QuarantinedDocs.Set(int64(len(s.quarantined)))
	s.mu.Unlock()
	s.logf("store: repaired %q: %d salvaged + %d fetched events (lost: %d blocks, %d bytes)",
		docID, info.Salvaged, info.Fetched, info.Salvage.CorruptBlocks, info.Salvage.LostBytes)
	return info, nil
}

// scrubber is the background integrity loop: every ScrubEvery it walks
// all hosted documents and re-verifies their on-disk state, paced by a
// shared byte budget. Damage quarantines the document, and scrubPass
// tells OnQuarantine (the cluster repair path).
func (s *Server) scrubber() {
	defer s.wg.Done()
	lim := newScrubLimiter(s.opts.ScrubBytesPerSec)
	t := time.NewTicker(s.opts.ScrubEvery)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.scrubPass(lim)
		}
	}
}

func (s *Server) scrubPass(lim *scrubLimiter) {
	ids, err := s.DocIDs()
	if err != nil {
		s.logf("store: scrub pass: %v", err)
		return
	}
	for _, id := range ids {
		select {
		case <-s.done:
			return
		default:
		}
		e, err := s.acquire(id)
		if err != nil {
			s.logf("store: scrub open %q: %v", id, err)
			continue
		}
		rep, err := e.ds.scrub(lim)
		s.metrics.ScrubBytes.Add(rep.Bytes)
		if len(rep.Damage) > 0 {
			s.metrics.CorruptBlocks.Add(int64(len(rep.Damage)))
			for _, d := range rep.Damage {
				s.logf("store: scrub %q: %s damage in %s at %d: %v", id, d.Kind, d.File, d.Off, d.Err)
			}
		}
		if err != nil {
			s.logf("store: scrub %q: %v", id, err)
		}
		if len(rep.Damage) > 0 {
			s.noteQuarantine(e, false)
		}
		s.release(e)
	}
	s.metrics.ScrubPasses.Inc()
}
