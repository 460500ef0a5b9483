// Package encoding reads the legacy "EGW1" whole-document on-disk format
// (paper §3.8), for files that already exist: nothing writes it any more.
// Every file is written in internal/colenc's "EGC2" format (see
// docs/FORMAT.md), pruned ones too. Different properties of the events
// are stored in separate run-length encoded byte columns, exploiting
// typical editing patterns (consecutive insertions/deletions, long linear
// graph runs, long runs of events by the same agent):
//
//   - ops: event type, start position, direction, and run length;
//   - content: UTF-8 of inserted characters (optionally compressed, and
//     optionally pruned of deleted characters);
//   - parents: only the events whose parent is not simply their
//     predecessor;
//   - agents: agent name table plus (agent, seq) runs;
//   - doc (optional): cached final document text for fast loads.
package encoding

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"unicode/utf8"

	"egwalker/internal/causal"
	"egwalker/internal/oplog"
)

var magic = [4]byte{'E', 'G', 'W', '1'}

// flag bits in the file header.
const (
	flagCachedDoc = 1 << iota
	flagPruned
	flagCompressed
)

// Decoded is the result of reading an encoded file.
type Decoded struct {
	Log *oplog.Log
	// Doc is the cached final document, if the file embeds one.
	Doc string
	// HasDoc reports whether Doc was present.
	HasDoc bool
	// Pruned lists, ascending, the insert events whose characters the
	// file omitted, deleted ones: they carry the replacement character
	// U+FFFD.
	Pruned []causal.Span
}

// Decode reads an encoded event graph.
func Decode(data []byte) (*Decoded, error) {
	r := &reader{buf: data}
	head := r.bytes(5)
	if r.err != nil {
		return nil, r.err
	}
	if !bytes.Equal(head[:4], magic[:]) {
		return nil, fmt.Errorf("encoding: bad magic %q", head[:4])
	}
	flags := head[4]
	n := int(r.uvarint())

	readCol := func() []byte { return r.bytes(int(r.uvarint())) }
	opsCol := &reader{buf: readCol()}
	contentCol := readCol()
	parentsCol := &reader{buf: readCol()}
	agentsCol := &reader{buf: readCol()}
	var doc string
	if flags&flagCachedDoc != 0 {
		doc = string(readCol())
	}
	if r.err != nil {
		return nil, r.err
	}
	if !utf8.ValidString(doc) {
		return nil, fmt.Errorf("encoding: invalid UTF-8 in doc column")
	}

	if flags&flagCompressed != 0 {
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(contentCol)))
		if err != nil {
			return nil, fmt.Errorf("encoding: decompress content: %w", err)
		}
		contentCol = raw
	}
	pruned := flags&flagPruned != 0

	// Decode ops into a flat per-event list.
	ops := make([]oplog.Op, 0, n)
	content := &reader{buf: contentCol}
	var dropped []causal.Span
	for len(ops) < n {
		tag := opsCol.uvarint()
		runLen := int(opsCol.uvarint())
		pos := int(opsCol.uvarint())
		if opsCol.err != nil {
			return nil, opsCol.err
		}
		if runLen <= 0 || len(ops)+runLen > n {
			return nil, fmt.Errorf("encoding: bad op run length %d", runLen)
		}
		switch tag {
		case 0: // insert run: its characters, or pruned, stretches of kept and omitted ones
			start, end := len(ops), len(ops)+runLen
			insert := func(c rune) { ops = append(ops, oplog.Op{Kind: oplog.Insert, Pos: pos + len(ops) - start, Content: c}) }
			for len(ops) < end {
				kept, skip := end-len(ops), 0
				if pruned {
					if kept, skip = int(content.uvarint()), int(content.uvarint()); content.err != nil {
						return nil, content.err
					}
					if kept < 0 || skip < 0 || kept+skip > end-len(ops) {
						return nil, fmt.Errorf("encoding: pruned run overflow")
					}
				}
				for ; kept > 0; kept-- {
					c, size := decodeRune(content)
					if size == 0 {
						return nil, fmt.Errorf("encoding: content column exhausted")
					}
					insert(c)
				}
				if k := len(dropped); k > 0 && dropped[k-1].End == causal.LV(len(ops)) {
					dropped[k-1].End += causal.LV(skip)
				} else if skip > 0 {
					dropped = append(dropped, causal.Span{Start: causal.LV(len(ops)), End: causal.LV(len(ops) + skip)})
				}
				for ; skip > 0; skip-- {
					insert(utf8.RuneError)
				}
			}
		case 1, 2: // delete run, dir = tag-2 (1 -> -1 backspace, 2 -> 0 forward)
			dir := int(tag) - 2
			for i := 0; i < runLen; i++ {
				ops = append(ops, oplog.Op{Kind: oplog.Delete, Pos: pos + i*dir})
			}
		default:
			return nil, fmt.Errorf("encoding: bad op tag %d", tag)
		}
	}

	// Decode parents into a map keyed by span start.
	parentsAt := make(map[causal.LV][]causal.LV)
	nParents := int(parentsCol.uvarint())
	for i := 0; i < nParents; i++ {
		at := causal.LV(parentsCol.uvarint())
		k := int(parentsCol.uvarint())
		ps := make([]causal.LV, k)
		for j := range ps {
			ps[j] = causal.LV(parentsCol.uvarint())
		}
		parentsAt[at] = ps
	}
	if parentsCol.err != nil {
		return nil, parentsCol.err
	}

	// Decode agents.
	nNames := int(agentsCol.uvarint())
	names := make([]string, nNames)
	for i := range names {
		ln := int(agentsCol.uvarint())
		names[i] = string(agentsCol.bytes(ln))
	}
	nRuns := int(agentsCol.uvarint())
	type agentRun struct {
		agent, seq, n int
	}
	runs := make([]agentRun, nRuns)
	total := 0
	for i := range runs {
		ai := int(agentsCol.uvarint())
		if agentsCol.err == nil && (ai < 0 || ai >= nNames) {
			return nil, fmt.Errorf("encoding: agent index %d out of range", ai)
		}
		runs[i] = agentRun{ai, int(agentsCol.uvarint()), int(agentsCol.uvarint())}
		total += runs[i].n
	}
	if agentsCol.err != nil {
		return nil, agentsCol.err
	}
	if total != n {
		return nil, fmt.Errorf("encoding: agent runs cover %d events, want %d", total, n)
	}

	// Rebuild the log: walk agent runs and graph-entry boundaries.
	l := oplog.New()
	lv := causal.LV(0)
	for _, run := range runs {
		seq := run.seq
		rem := run.n
		for rem > 0 {
			// A batch ends at the next explicit-parents boundary.
			batch := rem
			for off := 1; off < rem; off++ {
				if _, ok := parentsAt[lv+causal.LV(off)]; ok {
					batch = off
					break
				}
			}
			ps, ok := parentsAt[lv]
			if !ok {
				if lv == 0 {
					ps = nil
				} else {
					ps = []causal.LV{lv - 1}
				}
			}
			if _, err := l.AddRemote(names[run.agent], seq, ps, ops[int(lv):int(lv)+batch]); err != nil {
				return nil, fmt.Errorf("encoding: rebuild at %d: %w", lv, err)
			}
			lv += causal.LV(batch)
			seq += batch
			rem -= batch
		}
	}

	return &Decoded{
		Log:    l,
		Doc:    doc,
		HasDoc: flags&flagCachedDoc != 0,
		Pruned: dropped,
	}, nil
}

// decodeRune reads one UTF-8 rune from the reader.
func decodeRune(r *reader) (rune, int) {
	if r.err != nil || r.remaining() == 0 {
		return 0, 0
	}
	c, size := utf8.DecodeRune(r.buf[r.off:])
	if c == utf8.RuneError && size == 1 {
		r.fail("encoding: invalid UTF-8 sequence")
		return 0, 0
	}
	r.off += size
	return c, size
}
