package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"egwalker"
	"egwalker/internal/colenc"
)

// ErrQuarantined reports a document whose on-disk history is damaged:
// it serves the salvaged prefix read-only and refuses writes until
// Repair rebuilds it (from a replica's diff, or from the salvage alone).
var ErrQuarantined = errors.New("store: document is quarantined (on-disk corruption)")

// damageKind classifies what a scrub (or recovery) found wrong.
type damageKind int

const (
	// damageTornTail is corruption inside the active segment's fsynced
	// prefix. Reopen-time recovery would silently truncate it away —
	// losing acknowledged events — which is exactly why the scrubber
	// quarantines it for repair instead.
	damageTornTail damageKind = iota + 1
	// damageMidSegment is corruption in a sealed WAL segment: history
	// strictly older than the write frontier rotted or was overwritten.
	damageMidSegment
	// damageSnapshot is a snapshot that no longer decodes.
	damageSnapshot
	// damageMissing is a layout file (segment or snapshot the store
	// still relies on) that has vanished from the directory.
	damageMissing
)

func (k damageKind) String() string {
	switch k {
	case damageTornTail:
		return "torn-tail"
	case damageMidSegment:
		return "mid-segment"
	case damageSnapshot:
		return "snapshot"
	case damageMissing:
		return "missing-file"
	default:
		return fmt.Sprintf("damage(%d)", int(k))
	}
}

// damage is one thing the scrubber found wrong with one file.
type damage struct {
	Kind damageKind
	File string // base name within the document directory
	Off  int64  // first unusable byte (segments; 0 for snapshots)
	Err  error

	seq  uint64 // file's sequence number, for layout-liveness rechecks
	snap bool
}

// scrubReport summarizes one scrub pass over one document.
type scrubReport struct {
	Segments  int      // segment files verified
	Snapshots int      // snapshot files verified
	Bytes     int64    // bytes read and checksummed
	Damage    []damage // damage still in the live layout, which quarantines the document
}

// scrubLimiter is a token-bucket byte budget shared by scrub reads so
// a background pass never competes with the live path for disk
// bandwidth. A nil limiter (or rate <= 0) is unlimited.
type scrubLimiter struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	budget float64 // may go negative: large reads pay their debt by sleeping
	last   time.Time
}

// newScrubLimiter returns a limiter admitting bytesPerSec on average
// (<= 0: unlimited).
func newScrubLimiter(bytesPerSec int64) *scrubLimiter {
	return &scrubLimiter{rate: float64(bytesPerSec)}
}

// wait charges n bytes against the budget, sleeping off any debt.
func (l *scrubLimiter) wait(n int) {
	if l == nil || l.rate <= 0 || n <= 0 {
		return
	}
	l.mu.Lock()
	now := time.Now()
	if !l.last.IsZero() {
		l.budget += now.Sub(l.last).Seconds() * l.rate
	}
	l.last = now
	if l.budget > l.rate {
		l.budget = l.rate // at most one second of burst
	}
	l.budget -= float64(n)
	var sleep time.Duration
	if l.budget < 0 {
		sleep = time.Duration(-l.budget / l.rate * float64(time.Second))
	}
	l.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
}

// scrub re-verifies the document's on-disk integrity: every sealed WAL
// segment's CRC32-C block envelopes, the active segment's fsynced
// prefix, and the current snapshot's decode. Reads happen outside the
// store's lock, paced by lim. Damage that is still part of the live
// layout when the pass ends (compaction may have deleted a file we
// were reading) quarantines the document. An already-quarantined,
// write-poisoned, or closed store scrubs nothing.
func (s *DocStore) scrub(lim *scrubLimiter) (scrubReport, error) {
	s.mu.Lock()
	if st := s.loadState(); st == stateClosed || st == stateQuarantined || s.werr != nil {
		s.mu.Unlock()
		return scrubReport{}, nil
	}
	snapSeq, firstSeg, activeSeq, synced := s.snapSeq, s.firstSeg, s.activeSeq, s.syncedSize
	s.mu.Unlock()

	var rep scrubReport
	// read returns nil data (and no damage) when the file vanished AND
	// the layout moved on — a compaction race, not corruption.
	read := func(path string, seq uint64, snap bool) ([]byte, bool) {
		data, err := s.fs.ReadFile(path)
		if err == nil {
			lim.wait(len(data))
			return data, true
		}
		s.mu.Lock()
		live := seq == s.snapSeq
		if !snap {
			live = seq >= s.firstSeg && seq <= s.activeSeq
		}
		s.mu.Unlock()
		if live {
			rep.Damage = append(rep.Damage, damage{
				Kind: damageMissing, File: filepath.Base(path), Err: err, seq: seq, snap: snap,
			})
		}
		return nil, false
	}

	if snapSeq > 0 {
		path := filepath.Join(s.dir, snapName(snapSeq))
		if data, ok := read(path, snapSeq, true); ok {
			rep.Snapshots++
			rep.Bytes += int64(len(data))
			var err error
			if colenc.Sniff(data) {
				dec := colenc.GetDecoder()
				_, err = dec.Inspect(data)
				dec.Put()
			} else {
				_, err = egwalker.Load(bytes.NewReader(data), s.agent)
			}
			if err != nil {
				rep.Damage = append(rep.Damage, damage{
					Kind: damageSnapshot, File: snapName(snapSeq), Err: err, seq: snapSeq, snap: true,
				})
			}
		}
	}

	for seq := firstSeg; seq <= activeSeq; seq++ {
		path := filepath.Join(s.dir, segName(seq))
		data, ok := read(path, seq, false)
		if !ok {
			continue
		}
		active := seq == activeSeq
		if active && int64(len(data)) > synced {
			// Only the fsynced prefix is stable; in-flight appends beyond
			// it are the live path's business, not bit rot. The prefix
			// always ends on a block boundary, so a clean segment scans
			// without a tail error.
			data = data[:synced]
		}
		w, err := walkSegmentBlocks(data, func([]byte) error { return nil })
		rep.Segments++
		rep.Bytes += int64(len(data))
		switch {
		case err != nil:
			rep.Damage = append(rep.Damage, damage{
				Kind: damageMidSegment, File: segName(seq), Err: err, seq: seq,
			})
		case w.tail != nil:
			kind := damageMidSegment
			if active {
				kind = damageTornTail
			}
			rep.Damage = append(rep.Damage, damage{
				Kind: kind, File: segName(seq), Off: w.validLen, Err: w.tail, seq: seq,
			})
		}
	}

	if len(rep.Damage) == 0 {
		return rep, nil
	}
	// Re-check each finding against the layout as it stands now:
	// compaction may have legitimately deleted or replaced a file
	// mid-read. Whatever survives is real damage.
	s.mu.Lock()
	defer s.mu.Unlock()
	live := rep.Damage[:0]
	for _, d := range rep.Damage {
		if d.snap {
			if d.seq == s.snapSeq {
				live = append(live, d)
			}
		} else if d.seq >= s.firstSeg && d.seq <= s.activeSeq {
			live = append(live, d)
		}
	}
	rep.Damage = live
	if st := s.loadState(); len(live) > 0 && (st == stateJournal || st == stateMaterialized) {
		d := live[0]
		s.quarantineLocked(fmt.Errorf("scrub: %s damage in %s at %d: %w", d.Kind, d.File, d.Off, d.Err))
	}
	return rep, nil
}

// Quarantined reports whether the document is quarantined, and why.
func (s *DocStore) Quarantined() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loadState() != stateQuarantined {
		return false, nil
	}
	return true, s.qerr
}

// SalvageInfo reports what quarantine-time salvage kept and lost.
type SalvageInfo struct {
	// Events the salvaged prefix holds (what the store now serves).
	Events int
	// CorruptBlocks counts unreadable files / blocks skipped over, and
	// live WAL segments missing from the directory.
	CorruptBlocks int
	// LostBytes is how much of the WAL was unusable.
	LostBytes int64
	// SkippedSnapshots counts snapshots passed over as unreadable.
	SkippedSnapshots int
	// DroppedEvents counts events that decoded but could not be applied
	// (their causal parents were in the damaged region). A replica diff
	// at repair time may still admit them.
	DroppedEvents int
}

// Salvage reports the last quarantine's salvage outcome. Meaningful
// while quarantined and after a repair.
func (s *DocStore) Salvage() SalvageInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.salvage
}

// quarantineLocked moves a journal-only or materialized store to
// quarantine: writes refuse, block serving stops, compaction pressure is
// cleared, and the best salvageable document is materialized for
// read-only serving. Journal-only, it returns the snapshot the salvage
// started from and the segments it read.
func (s *DocStore) quarantineLocked(reason error) (snapSeq uint64, segs []uint64) {
	start := time.Now()
	if s.doc == nil {
		// Journal-only: the history lives nowhere but the damaged disk.
		// Salvage what replays cleanly.
		snaps, segs, _ := s.scanDirSeqs()
		s.doc, snapSeq, s.salvage = s.salvageDoc(snaps, segs)
		s.known = nil
		s.persisted = s.doc.Version()
	} else {
		// Materialized: memory still holds everything the store
		// admitted; only the disk under it is lying. Nothing is lost
		// unless the process dies before repair.
		s.salvage = SalvageInfo{Events: s.doc.NumEvents()}
	}
	s.qerr = reason
	s.blockServable = false
	s.eventsSinceSnap = 0 // keep the compactor away
	s.installedLocked(stateQuarantined, start)
	return snapSeq, segs
}

// recoverQuarantined is the open-time quarantine path: recovery found
// damage truncation cannot repair, and Options.Quarantine asked for a
// salvaged read-only store instead of an error. No active segment is
// opened — a quarantined store journals nothing.
func (s *DocStore) recoverQuarantined(reason error) error {
	if _, _, err := s.scanDirSeqs(); err != nil {
		return err
	}
	snapSeq, segs := s.quarantineLocked(reason)
	s.snapSeq, s.recovery.SnapshotSeq, s.firstSeg = snapSeq, snapSeq, snapSeq
	if s.firstSeg == 0 && len(segs) > 0 {
		s.firstSeg = segs[0]
	}
	if len(segs) > 0 {
		s.activeSeq = segs[len(segs)-1]
	}
	return nil
}

// salvageDoc replays everything that still parses: the newest loadable
// snapshot, then each segment's valid prefix, skipping damage instead
// of stopping at it. Events whose causal parents fell in a damaged
// region stay buffered as pending (a repair diff may admit them); the
// returned document serves the longest causally-closed prefix.
func (s *DocStore) salvageDoc(snaps, segs []uint64) (*egwalker.Doc, uint64, SalvageInfo) {
	var info SalvageInfo
	var doc *egwalker.Doc
	snapSeq, skipped, _ := s.chooseSnapshot(snaps, func(data []byte) (err error) {
		doc, err = egwalker.Load(bytes.NewReader(data), s.agent)
		return err
	})
	info.SkippedSnapshots = skipped
	if doc == nil {
		doc = egwalker.NewDoc(s.agent)
	}
	// The live segments run from the snapshot's seq (1 without one) to
	// the newest, and each number missing among them is a lost block, as
	// an unreadable file is. With every snapshot unreadable, what came
	// before the oldest segment was theirs: SkippedSnapshots counts it.
	next := max(snapSeq, 1)
	if snapSeq == 0 && skipped > 0 && len(segs) > 0 {
		next = segs[0]
	}
	for _, seq := range segs {
		if seq < next {
			continue
		}
		info.CorruptBlocks += int(seq - next)
		next = seq + 1
		data, err := s.fs.ReadFile(filepath.Join(s.dir, segName(seq)))
		if err != nil {
			info.CorruptBlocks++
			continue
		}
		w, err := replayBlocks(data, func(evs []egwalker.Event) error {
			if _, err := doc.Apply(evs); err != nil {
				info.DroppedEvents += len(evs)
			}
			return nil
		})
		switch {
		case err != nil:
			// Not recognizably a segment (mangled header): skip it whole.
			info.CorruptBlocks++
			info.LostBytes += int64(len(data))
		case w.tail != nil:
			info.CorruptBlocks++
			info.LostBytes += int64(len(data)) - w.validLen
		}
	}
	info.DroppedEvents += doc.PendingEvents()
	info.Events = doc.NumEvents()
	return doc, snapSeq, info
}

// RepairInfo reports what a Repair did.
type RepairInfo struct {
	// Salvaged is how many events the local salvage contributed.
	Salvaged int
	// Fetched is how many fresh events the caller's diff (from a
	// replica) added on top of the salvage.
	Fetched int
	// Events is the repaired document's history size.
	Events int
	// Salvage is the quarantine-time salvage outcome, for reporting
	// what the damage cost (zero losses when a replica's diff covered
	// everything).
	Salvage SalvageInfo
}

// Repair rebuilds a quarantined document and re-admits it: extra (a
// replica's exact summary diff; nil for single-node salvage-only
// repair) is merged into the salvaged document, then a fresh
// snapshot + empty WAL segment replace the damaged directory
// atomically. The damaged tree is kept aside as .corrupt-<name> (one
// per document) for forensics. On success the store serves reads and
// writes again.
func (s *DocStore) Repair(extra []egwalker.Event) (RepairInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.loadState() {
	case stateClosed:
		return RepairInfo{}, fmt.Errorf("store: %s is closed", s.docID)
	case stateJournal, stateMaterialized:
		return RepairInfo{}, fmt.Errorf("store: %s is not quarantined", s.docID)
	}
	doc := s.doc
	if doc == nil {
		return RepairInfo{}, fmt.Errorf("store: %s has no salvaged document", s.docID)
	}
	salvaged := doc.NumEvents()
	if len(extra) > 0 {
		if _, err := doc.Apply(extra); err != nil {
			return RepairInfo{}, fmt.Errorf("store: repairing %s: %w", s.docID, err)
		}
	}
	info := RepairInfo{
		Salvaged: salvaged,
		Fetched:  doc.NumEvents() - salvaged,
		Events:   doc.NumEvents(),
		Salvage:  s.salvage,
	}
	if err := s.rebuildLocked(); err != nil {
		return info, fmt.Errorf("store: rebuilding %s: %w", s.docID, err)
	}
	return info, nil
}

// rebuildLocked writes the in-memory document out as a fresh
// snapshot + empty active segment in a sibling directory, then swaps
// it in under the document's name and resets the store's layout state.
// The swap is two renames; a crash between them leaves the document
// absent under its name but fully intact under .corrupt-<name>, which
// is surfaced rather than silently recreated empty. Both new renames
// get the same best-effort directory fsync the snapshot path uses.
func (s *DocStore) rebuildLocked() error {
	base := filepath.Base(s.dir)
	root := filepath.Dir(s.dir)
	tmpDir := filepath.Join(root, ".repair-"+base)
	if err := s.fs.RemoveAll(tmpDir); err != nil {
		return err
	}
	if err := s.fs.MkdirAll(tmpDir, 0o777); err != nil {
		return err
	}
	lock, err := lockDir(tmpDir)
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			unlockDir(lock)
			s.fs.RemoveAll(tmpDir)
		}
	}()

	size, err := s.writeSnapshot(filepath.Join(tmpDir, snapName(1)))
	if err != nil {
		return err
	}
	seg, err := s.fs.OpenFile(filepath.Join(tmpDir, segName(1)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	err = writeSegmentHeader(seg)
	if err == nil {
		err = seg.Sync()
	}
	if err != nil {
		seg.Close()
		return err
	}
	syncDir(s.fs, tmpDir)

	aside := filepath.Join(root, ".corrupt-"+base)
	if err := s.fs.RemoveAll(aside); err != nil {
		seg.Close()
		return err
	}
	if s.active != nil {
		s.active.Close()
		s.active = nil
	}
	if err := s.fs.Rename(s.dir, aside); err != nil {
		seg.Close()
		return err
	}
	if err := s.fs.Rename(tmpDir, s.dir); err != nil {
		// Put the damaged tree back under its name; the store stays
		// quarantined either way.
		s.fs.Rename(aside, s.dir)
		seg.Close()
		return err
	}
	syncDir(s.fs, root)
	committed = true

	// The open fd follows the rename; so does the flock on the new
	// directory's LOCK file — exclusivity never lapses.
	unlockDir(s.lock)
	s.lock = lock
	s.active = seg
	s.activeSeq, s.snapSeq, s.firstSeg = 1, 1, 1
	s.activeSize, s.syncedSize = segHeaderLen, segHeaderLen
	s.known = nil
	s.persisted = s.doc.Version()
	s.eventsSinceSnap, s.sealedSinceSnap, s.unsyncedEvents = 0, 0, 0
	s.recovery = RecoveryInfo{SnapshotSeq: 1}
	s.werr = nil
	s.qerr = nil
	s.blockServable = size <= egwalker.MaxBatchBytes
	s.setStateLocked(stateMaterialized)
	return nil
}
