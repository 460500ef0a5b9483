package store

import (
	"fmt"
	"path/filepath"

	"egwalker"
	"egwalker/internal/colenc"
)

// BlockCut pins a consistent on-disk view of a document for
// block-level serving: the snapshot plus the WAL segment range that
// together contain every event the store held at cut time. Take the
// cut while holding whatever ordering guarantee matters (the Server
// takes it under the same lock that orders fan-out), then stream it
// outside all locks.
type BlockCut struct {
	fs       FS
	dir      string
	snapSeq  uint64
	firstSeg uint64
	lastSeg  uint64
	lastLen  int64 // bytes of lastSeg valid at cut time
	events   int   // events the cut covers
}

// CutForServe captures a block cut, or reports false when this store
// cannot block-serve: the snapshot is legacy-format or too large for
// one frame, a sticky write error means the WAL tail is suspect, the
// document is quarantined (never stream blocks off a damaged disk), or
// the store is closed. Callers fall back to a decoded catch-up.
func (s *DocStore) CutForServe() (*BlockCut, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.loadState(); st == stateClosed || st == stateQuarantined || s.werr != nil || !s.blockServable {
		return nil, false
	}
	return &BlockCut{
		fs:       s.fs,
		dir:      s.dir,
		snapSeq:  s.snapSeq,
		firstSeg: s.firstSeg,
		lastSeg:  s.activeSeq,
		lastLen:  s.activeSize,
		events:   s.numEventsLocked(),
	}, true
}

// StreamBlocks reads the cut's snapshot and WAL blocks off disk and
// hands them to send as batch frames — the zero-materialization
// catch-up. The snapshot goes verbatim, as one frame; the WAL blocks
// after it go through a coalescer, which decodes (and so checks) each
// one and merges consecutive blocks into columnar frames of at most
// maxCoalescedEvents events, as egwalker.MarshalBatches writes them.
// Every frame is one a compact-capable peer decodes like any other
// events frame. Returns the number of frames sent; on error the stream
// may be partial, and the caller should fall back to a decoded catch-up
// — receivers deduplicate, so a partial stream followed by a full
// snapshot still converges. A block that does not decode ends the
// stream before anything of its group is sent.
// Concurrent compaction may delete a cut's files mid-stream; that
// surfaces here as an error, not corruption.
func (s *DocStore) StreamBlocks(cut *BlockCut, send func(payload []byte) error) (int, error) {
	sent := 0
	emit := func(payload []byte) error {
		if err := send(payload); err != nil {
			return err
		}
		sent++
		return nil
	}
	if cut.snapSeq > 0 {
		data, err := cut.fs.ReadFile(filepath.Join(cut.dir, snapName(cut.snapSeq)))
		if err != nil {
			return sent, err
		}
		if !colenc.Sniff(data) || len(data) > egwalker.MaxBatchBytes {
			return sent, fmt.Errorf("store: snapshot %s not servable as a frame", snapName(cut.snapSeq))
		}
		if err := emit(data); err != nil {
			return sent, err
		}
	}
	c := newCoalescer(emit)
	defer c.release()
	for seq := cut.firstSeg; seq <= cut.lastSeg; seq++ {
		// Each segment is read into a buffer of its own, so the blocks
		// of a group that spans a rotation stay valid until it is sent.
		path := filepath.Join(cut.dir, segName(seq))
		data, err := cut.fs.ReadFile(path)
		if err != nil {
			return sent, err
		}
		if seq == cut.lastSeg && int64(len(data)) > cut.lastLen {
			// The active segment grew past the cut; newer blocks reach
			// the peer through live fan-out instead.
			data = data[:cut.lastLen]
		}
		w, err := walkSegmentBlocks(data, c.add)
		if err != nil {
			return sent, err
		}
		if w.tail != nil {
			return sent, fmt.Errorf("store: segment %s: %w", path, w.tail)
		}
	}
	return sent, c.flush()
}
