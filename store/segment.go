// Package store persists egwalker documents durably and hosts many of
// them at once: the "Smaller" side of the paper made operational. Each
// document gets a directory holding
//
//   - an append-only, segmented write-ahead log: wal-<seq>.seg files of
//     CRC-protected blocks, each one payload of egwalker.MarshalBatches —
//     the batch encoding the network uses — rotated at a size
//     threshold. This package is the block format's only writer
//     (sealBlock) and only reader (walkSegmentBlocks);
//   - snapshots: snap-<seq>.egw files, each a whole-document EGC2 frame
//     from Doc.Save with the final text cached, every deleted character
//     kept and no compression, where <seq> is the first WAL segment NOT
//     covered by the snapshot;
//   - compaction: once a snapshot covers them, sealed segments and
//     older snapshots are deleted.
//
// Crash recovery loads the newest loadable snapshot and replays every
// WAL segment at or after it, each block as it is walked; a hole in
// those segments' numbers is damage. A torn tail — a partial frame left
// by a crash mid-append — is detected (checksum mismatch or a block cut
// short, surfacing io.ErrUnexpectedEOF) and truncated away; replay is
// idempotent because Doc.Apply drops duplicate events.
//
// DocStore is one durable document; Server (server.go) hosts many
// behind string document IDs with an LRU of materialized docs, batched
// fsyncs, and background compaction.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"egwalker"
)

// Segment file layout: a 5-byte header (magic + format version), then
// zero or more blocks appended over time. A block is one checksummed
// event batch:
//
//	uvarint payload length | uint32le CRC32-C of payload | payload
//
// The payload is one of egwalker.MarshalBatches' payloads: the legacy
// per-event codec for a batch of up to 3 events, the columnar one from 4
// (colenc.Sniff tells them apart), so the two interleave freely within a
// segment. Segments written before that rule hold legacy blocks of up
// to 7 events and older ones legacy blocks of any size; the reader
// takes them all.
var segMagic = [4]byte{'E', 'G', 'W', 'S'}

const (
	segVersion   = 1
	segHeaderLen = 5
)

// errBadSegment reports a file that is not a WAL segment at all (bad
// magic or unknown version) — unlike a torn tail, this is never safe to
// repair by truncation.
var errBadSegment = errors.New("store: not a WAL segment")

// errCorruptBlock reports a block whose checksum does not match its
// payload, or whose length prefix no writer produces: the bytes were
// damaged after being written.
var errCorruptBlock = errors.New("store: corrupt WAL block")

var blockCRCTable = crc32.MakeTable(crc32.Castagnoli)

// sealBlock wraps an encoded batch payload in the block envelope. A
// payload is at most egwalker.MaxBatchBytes, the netsync frame cap too,
// so a journaled block can be forwarded as one frame and a frame
// journaled as one block: an uploaded frame whose structure was
// validated is journaled through it verbatim, without re-encoding.
func sealBlock(payload []byte) ([]byte, error) {
	if len(payload) > egwalker.MaxBatchBytes {
		return nil, fmt.Errorf("store: WAL block too large (%d bytes, cap %d)", len(payload), egwalker.MaxBatchBytes)
	}
	block := make([]byte, 0, binary.MaxVarintLen64+4+len(payload))
	block = binary.AppendUvarint(block, uint64(len(payload)))
	block = binary.LittleEndian.AppendUint32(block, crc32.Checksum(payload, blockCRCTable))
	return append(block, payload...), nil
}

// encodeBlocks seals each payload egwalker.MarshalBatches writes for a
// batch as one block, so the WAL picks the encoding where the network
// does. Encoding is pure: nothing has been written anywhere when it
// fails, which tells a rejected batch apart from a torn write, and a
// batch the codec rejects does not poison the store.
func encodeBlocks(events []egwalker.Event) ([][]byte, error) {
	blocks, err := egwalker.MarshalBatches(events)
	if err != nil {
		return nil, fmt.Errorf("store: encoding WAL batch: %w", err)
	}
	for i, payload := range blocks {
		if blocks[i], err = sealBlock(payload); err != nil {
			return nil, err
		}
	}
	return blocks, nil
}

// writeSegmentHeader starts a fresh segment file.
func writeSegmentHeader(f File) error {
	hdr := append(append([]byte(nil), segMagic[:]...), segVersion)
	_, err := f.Write(hdr)
	return err
}

// blockWalk is what walking a segment's blocks yields.
type blockWalk struct {
	// validLen is the byte offset after the last cleanly parsed block.
	validLen int64
	// tail is non-nil when the walk stopped before the end of the data:
	// the reason the remaining bytes are unusable. A torn tail (crash
	// mid-append) surfaces io.ErrUnexpectedEOF or errCorruptBlock here
	// (tornTail).
	tail error
}

// walkSegmentBlocks walks a segment byte image's block envelopes,
// verifying each checksum and handing fn the raw payload — the exact
// batch bytes a writer journaled, without decoding them. Block-serving,
// journal-only recovery and the scrubber read WAL segments through it
// without materializing anything; replayBlocks decodes each payload it
// is handed. The payload slice aliases data and is only valid during the
// call. The walk is nil, with an error, only when data is not a segment
// at all. Anything else that stops it — envelope damage, or a non-nil
// error from fn, with validLen at the start of the block fn refused — is
// reported through blockWalk.tail, so every reader shares one torn-tail
// policy.
func walkSegmentBlocks(data []byte, fn func(payload []byte) error) (*blockWalk, error) {
	if len(data) < segHeaderLen {
		// Crashing between file creation and header write leaves a short
		// file: an empty segment with a torn tail.
		return &blockWalk{validLen: 0, tail: fmt.Errorf("store: segment header cut short: %w", io.ErrUnexpectedEOF)}, nil
	}
	if string(data[:4]) != string(segMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", errBadSegment, data[:4])
	}
	if data[4] != segVersion {
		return nil, fmt.Errorf("%w: unknown version %d", errBadSegment, data[4])
	}
	w := &blockWalk{validLen: segHeaderLen}
	off := segHeaderLen
	for off < len(data) {
		// Length prefix (uvarint).
		n, width := uint64(0), 0
		for shift := uint(0); ; shift += 7 {
			if off+width >= len(data) {
				w.tail = fmt.Errorf("store: torn block length: %w", io.ErrUnexpectedEOF)
				return w, nil
			}
			if shift >= 64 {
				w.tail = fmt.Errorf("store: block length overflow: %w", errCorruptBlock)
				return w, nil
			}
			b := data[off+width]
			width++
			n |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
		}
		if n > egwalker.MaxBatchBytes {
			// No writer produces blocks past the cap (sealBlock
			// enforces it), so this is a damaged prefix.
			w.tail = fmt.Errorf("store: block claims %d bytes: %w", n, errCorruptBlock)
			return w, nil
		}
		blockEnd := off + width + 4 + int(n)
		if blockEnd > len(data) {
			w.tail = fmt.Errorf("store: torn block: %w", io.ErrUnexpectedEOF)
			return w, nil
		}
		crcOff := off + width
		payload := data[crcOff+4 : blockEnd]
		if crc32.Checksum(payload, blockCRCTable) != binary.LittleEndian.Uint32(data[crcOff:crcOff+4]) {
			w.tail = fmt.Errorf("store: block checksum mismatch: %w", errCorruptBlock)
			return w, nil
		}
		if err := fn(payload); err != nil {
			w.tail = err
			return w, nil
		}
		off = blockEnd
		w.validLen = int64(off)
	}
	return w, nil
}

// replayBlocks walks a segment image and hands apply each block's events
// as the block is walked, so one block is decoded at a time. A block that
// does not decode, or that apply refuses, ends the walk through its tail,
// as envelope damage does.
func replayBlocks(data []byte, apply func([]egwalker.Event) error) (*blockWalk, error) {
	return walkSegmentBlocks(data, func(payload []byte) error {
		evs, err := egwalker.UnmarshalEventsAuto(payload)
		if err != nil {
			return fmt.Errorf("store: block does not decode: %w", err)
		}
		return apply(evs)
	})
}

// tornTail reports whether a walk stopped for damage of the kind a
// crash mid-append (or tail bit rot) produces — a block cut short, a
// checksum mismatch, a mangled length prefix — which is safe to repair
// by truncating the *last* segment to validLen. A structurally
// impossible but checksummed block is not classified torn: it means a
// writer bug, and recovery refuses to silently discard it.
func tornTail(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errCorruptBlock)
}

// --- document ID <-> directory names --------------------------------------

// escapeDocID maps an arbitrary document ID to a safe directory name:
// alphanumerics, '.', '_' and '-' pass through (except leading dots);
// everything else becomes %XX. The mapping is invertible so Server can
// enumerate hosted documents from the filesystem.
func escapeDocID(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.' && i > 0:
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

func unescapeDocID(name string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(name) {
			return "", fmt.Errorf("store: truncated escape in %q", name)
		}
		var v int
		if _, err := fmt.Sscanf(name[i+1:i+3], "%02X", &v); err != nil {
			return "", fmt.Errorf("store: bad escape in %q: %w", name, err)
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), nil
}
