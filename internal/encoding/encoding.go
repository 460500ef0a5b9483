// Package encoding implements the legacy "EGW1" whole-document on-disk
// format (paper §3.8). New files default to internal/colenc's "EGC2"
// batch format (see docs/FORMAT.md); this package remains the reader
// for existing files and the only writer of the pruned
// (deleted-content-omitted) variant, selected via SaveOptions.Legacy /
// OmitDeletedContent. Different properties of the events are stored in
// separate run-length encoded byte columns, exploiting typical editing
// patterns (consecutive insertions/deletions, long linear graph runs,
// long runs of events by the same agent):
//
//   - ops: event type, start position, direction, and run length;
//   - content: UTF-8 of inserted characters (optionally compressed, and
//     optionally pruned of deleted characters);
//   - parents: only the events whose parent is not simply their
//     predecessor;
//   - agents: agent name table plus (agent, seq) runs;
//   - doc (optional): cached final document text for fast loads.
//
// The same format is used for persistence and for network replication of
// whole graphs.
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

// Options control what goes into an encoded file.
type Options struct {
	// CacheFinalDoc embeds the final document text so it can be loaded
	// without replaying the graph (Fig 8 "cached load", Fig 11
	// "+ cached final doc"). The caller provides the text in Encode's
	// finalDoc argument.
	CacheFinalDoc bool
	// OmitDeletedContent drops the content of characters that are
	// deleted in the final document, like Yjs does (Fig 12). Such a file
	// still merges correctly with others but cannot reconstruct past
	// versions.
	OmitDeletedContent bool
	// Compress applies DEFLATE to the content column. (The paper's
	// implementation uses LZ4, which is not in the Go standard library;
	// the role — cheap content compression behind a flag — is the same.
	// Size benchmarks follow the paper and leave this off.)
	Compress bool
}

// flag bits in the file header.
const (
	flagCachedDoc = 1 << iota
	flagPruned
	flagCompressed
)

// Encode writes the event log to w. finalDoc is the document text at the
// log's current version; it is required when Options.CacheFinalDoc or
// Options.OmitDeletedContent is set (pass "" otherwise). deleted is the
// set of insert-event LVs whose characters are deleted in the final
// document; it is required only for OmitDeletedContent (see
// DeletedSet).
func Encode(w io.Writer, l *oplog.Log, opts Options, finalDoc string, deleted map[causal.LV]bool) error {
	var flags byte
	if opts.CacheFinalDoc {
		flags |= flagCachedDoc
	}
	if opts.OmitDeletedContent {
		flags |= flagPruned
		if deleted == nil {
			return fmt.Errorf("encoding: OmitDeletedContent requires the deleted set")
		}
	}
	if opts.Compress {
		flags |= flagCompressed
	}
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	if _, err := w.Write([]byte{flags}); err != nil {
		return err
	}
	var hdr []byte
	hdr = putUvarint(hdr, uint64(l.Len()))
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	full := causal.Span{Start: 0, End: causal.LV(l.Len())}

	// Column 1: ops. Per run: kind+dir tag, run length, start position.
	var ops []byte
	var content []byte
	l.EachRun(full, func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, runes []rune) bool {
		tag := uint64(0)
		if kind == oplog.Delete {
			tag = 1 + uint64(dir+1) // 1: backspace(-1), 2: forward(0)
		}
		ops = putUvarint(ops, tag)
		ops = putUvarint(ops, uint64(lvs.Len()))
		ops = putUvarint(ops, uint64(pos))
		if kind == oplog.Insert {
			if opts.OmitDeletedContent {
				// Keep a per-character presence bitmap run: emit runs of
				// kept/dropped lengths so decode stays aligned.
				content = appendPrunedRun(content, lvs, runes, deleted)
			} else {
				content = append(content, []byte(string(runes))...)
			}
		}
		return true
	})

	// Column 3: parents, only for entries that break the linear chain.
	// Column 4: agents, a name table and then (agent, seqStart, len) runs;
	// an agent's index in the table is its number in the graph.
	var parents []byte
	nParents := 0
	type agentRun struct {
		agent, seq, n int
	}
	var runs []agentRun
	var refs []causal.Ref
	for w := l.Graph.EntriesIn(full); ; {
		span, last, ps, ok := w.NextRefs(refs)
		if !ok {
			break
		}
		refs = ps
		ai, seq := l.Graph.NumOf(last)
		seqStart := seq - span.Len() + 1
		if k := len(runs); k > 0 && runs[k-1].agent == ai && runs[k-1].seq+runs[k-1].n == seqStart {
			runs[k-1].n += span.Len()
		} else {
			runs = append(runs, agentRun{ai, seqStart, span.Len()})
		}
		if len(ps) == 1 && ps[0].LV == span.Start-1 {
			continue
		}
		nParents++
		parents = putUvarint(parents, uint64(span.Start))
		parents = putUvarint(parents, uint64(len(ps)))
		for _, p := range ps {
			parents = putUvarint(parents, uint64(p.LV))
		}
	}
	var parentsHdr []byte
	parentsHdr = putUvarint(parentsHdr, uint64(nParents))
	parents = append(parentsHdr, parents...)

	var agents []byte
	names := l.Graph.Agents()
	agents = putUvarint(agents, uint64(len(names)))
	for _, n := range names {
		agents = putUvarint(agents, uint64(len(n)))
		agents = append(agents, n...)
	}
	agents = putUvarint(agents, uint64(len(runs)))
	for _, r := range runs {
		agents = putUvarint(agents, uint64(r.agent))
		agents = putUvarint(agents, uint64(r.seq))
		agents = putUvarint(agents, uint64(r.n))
	}

	if opts.Compress {
		var zbuf bytes.Buffer
		zw, err := flate.NewWriter(&zbuf, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := zw.Write(content); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		content = zbuf.Bytes()
	}

	for _, col := range [][]byte{ops, content, parents, agents} {
		if err := writeColumn(w, col); err != nil {
			return err
		}
	}
	if opts.CacheFinalDoc {
		if err := writeColumn(w, []byte(finalDoc)); err != nil {
			return err
		}
	}
	return nil
}

// appendPrunedRun encodes an insert run's content keeping only surviving
// characters: varint pairs of (kept-run length, dropped-run length)
// alternating, terminated implicitly by the run length, followed by the
// kept UTF-8 bytes.
func appendPrunedRun(buf []byte, lvs causal.Span, runes []rune, deleted map[causal.LV]bool) []byte {
	// Emit presence as alternating run lengths starting with "kept".
	i := 0
	for i < len(runes) {
		kept := 0
		for i+kept < len(runes) && !deleted[lvs.Start+causal.LV(i+kept)] {
			kept++
		}
		dropped := 0
		for i+kept+dropped < len(runes) && deleted[lvs.Start+causal.LV(i+kept+dropped)] {
			dropped++
		}
		buf = putUvarint(buf, uint64(kept))
		buf = putUvarint(buf, uint64(dropped))
		buf = append(buf, []byte(string(runes[i:i+kept]))...)
		i += kept + dropped
	}
	return buf
}

// Decoded is the result of reading an encoded file.
type Decoded struct {
	Log *oplog.Log
	// Doc is the cached final document, if the file embeds one.
	Doc string
	// HasDoc reports whether Doc was present.
	HasDoc bool
	// Pruned reports that deleted characters' content was omitted; the
	// log's delete positions are intact but deleted insert events carry
	// the replacement character U+FFFD.
	Pruned bool
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
		case 0: // insert run
			runes, err := decodeRunContent(content, runLen, pruned)
			if err != nil {
				return nil, err
			}
			for i := 0; i < runLen; i++ {
				ops = append(ops, oplog.Op{Kind: oplog.Insert, Pos: pos + i, Content: runes[i]})
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
		Pruned: pruned,
	}, nil
}

// decodeRunContent reads runLen runes for an insert run.
func decodeRunContent(r *reader, runLen int, pruned bool) ([]rune, error) {
	out := make([]rune, 0, runLen)
	if !pruned {
		// The content column is a contiguous UTF-8 stream; consume
		// exactly runLen runes.
		for len(out) < runLen {
			ru, size := decodeRune(r)
			if size == 0 {
				return nil, fmt.Errorf("encoding: content column exhausted")
			}
			out = append(out, ru)
		}
		return out, nil
	}
	for len(out) < runLen {
		kept := int(r.uvarint())
		dropped := int(r.uvarint())
		if r.err != nil {
			return nil, r.err
		}
		if len(out)+kept+dropped > runLen {
			return nil, fmt.Errorf("encoding: pruned run overflow")
		}
		for i := 0; i < kept; i++ {
			ru, size := decodeRune(r)
			if size == 0 {
				return nil, fmt.Errorf("encoding: pruned content exhausted")
			}
			out = append(out, ru)
		}
		for i := 0; i < dropped; i++ {
			out = append(out, '�')
		}
	}
	return out, nil
}

// decodeRune reads one UTF-8 rune from the reader.
func decodeRune(r *reader) (rune, int) {
	if r.err != nil || r.remaining() == 0 {
		return 0, 0
	}
	b := r.buf[r.off]
	size := 1
	switch {
	case b < 0x80:
	case b>>5 == 0x6:
		size = 2
	case b>>4 == 0xe:
		size = 3
	case b>>3 == 0x1e:
		size = 4
	default:
		r.fail("encoding: invalid UTF-8 lead byte %#x", b)
		return 0, 0
	}
	raw := r.bytes(size)
	if r.err != nil {
		return 0, 0
	}
	rs := []rune(string(raw))
	if len(rs) != 1 {
		r.fail("encoding: invalid UTF-8 sequence")
		return 0, 0
	}
	return rs[0], size
}
