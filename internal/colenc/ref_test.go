package colenc

// The per-unit codec this package had before runs became its currency,
// kept as the differential reference: refEncode walks a batch event by
// event, refDecodeLimit materialises one Event (and one parents slice)
// per unit. The run codec must produce refEncode's bytes and, expanded,
// refDecodeLimit's events — and accept exactly the frames it accepts.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"math"
	"unicode/utf8"

	"egwalker/internal/oplog"
)

// BuildLogRuns is how a whole-document frame became a log before
// LoadDocument: the runs DecodeRuns had cut, each parent looked up by ID
// and each run appended. LoadDocument must accept what DecodeRuns followed
// by this accepts, and build the same log.
func BuildLogRuns(runs iter.Seq[Run]) (*oplog.Log, error) { return buildLog(oplog.New(), runs) }

func refEncode(events []Event, doc string, withDoc bool, opts Options) ([]byte, error) {
	n := len(events)

	// Agents column: name table + (agent, seqStart, len) runs.
	var agents []byte
	agentIdx := map[string]int{}
	var names []string
	intern := func(a string) (int, error) {
		if i, ok := agentIdx[a]; ok {
			return i, nil
		}
		if len(a) > maxAgentName {
			return 0, fmt.Errorf("colenc: agent name too long (%d bytes)", len(a))
		}
		agentIdx[a] = len(names)
		names = append(names, a)
		return len(names) - 1, nil
	}
	type agentRun struct{ agent, seq, n int }
	var aruns []agentRun
	for _, ev := range events {
		ai, err := intern(ev.ID.Agent)
		if err != nil {
			return nil, err
		}
		if ev.ID.Seq < 0 {
			return nil, fmt.Errorf("colenc: negative seq in event %s/%d", ev.ID.Agent, ev.ID.Seq)
		}
		if k := len(aruns); k > 0 && aruns[k-1].agent == ai && aruns[k-1].seq+aruns[k-1].n == ev.ID.Seq {
			aruns[k-1].n++
		} else {
			aruns = append(aruns, agentRun{ai, ev.ID.Seq, 1})
		}
		// Parent names must enter the table too (external parents are
		// encoded as table references).
		for _, p := range ev.Parents {
			if _, err := intern(p.Agent); err != nil {
				return nil, err
			}
		}
	}
	agents = binary.AppendUvarint(agents, uint64(len(names)))
	for _, name := range names {
		agents = binary.AppendUvarint(agents, uint64(len(name)))
		agents = append(agents, name...)
	}
	agents = binary.AppendUvarint(agents, uint64(len(aruns)))
	for _, r := range aruns {
		agents = binary.AppendUvarint(agents, uint64(r.agent))
		agents = binary.AppendUvarint(agents, uint64(r.seq))
		agents = binary.AppendUvarint(agents, uint64(r.n))
	}

	// Ops column: (tag, len, startPos) runs; content column: the
	// inserted runes of every insert run, concatenated.
	var ops, content []byte
	for i := 0; i < n; {
		ev := events[i]
		if ev.Pos < 0 {
			return nil, fmt.Errorf("colenc: negative position in event %s/%d", ev.ID.Agent, ev.ID.Seq)
		}
		j := i + 1
		if ev.Insert {
			if !utf8.ValidRune(ev.Content) {
				return nil, fmt.Errorf("colenc: invalid rune %#x in event %s/%d", ev.Content, ev.ID.Agent, ev.ID.Seq)
			}
			for j < n && events[j].Insert && events[j].Pos == ev.Pos+(j-i) && utf8.ValidRune(events[j].Content) {
				j++
			}
			ops = binary.AppendUvarint(ops, tagInsert)
			ops = binary.AppendUvarint(ops, uint64(j-i))
			ops = binary.AppendUvarint(ops, uint64(ev.Pos))
			for k := i; k < j; k++ {
				content = utf8.AppendRune(content, events[k].Content)
			}
		} else {
			// Prefer the longer of the two delete-run shapes starting
			// here; a lone delete encodes as a forward run of one.
			back, fwd := i+1, i+1
			for back < n && !events[back].Insert && events[back].Pos == ev.Pos-(back-i) {
				back++
			}
			for fwd < n && !events[fwd].Insert && events[fwd].Pos == ev.Pos {
				fwd++
			}
			tag := uint64(tagDeleteFwd)
			j = fwd
			if back > fwd {
				tag = tagDeleteBack
				j = back
			}
			ops = binary.AppendUvarint(ops, tag)
			ops = binary.AppendUvarint(ops, uint64(j-i))
			ops = binary.AppendUvarint(ops, uint64(ev.Pos))
		}
		i = j
	}

	// Parents column: only events whose parents are not simply the
	// previous event in the batch. Event 0 has no previous event, so it
	// always appears. Entry indexes are delta-encoded (they are
	// strictly increasing).
	var parents []byte
	nExc := 0
	prevIdx := 0
	for i, ev := range events {
		if i > 0 && len(ev.Parents) == 1 && ev.Parents[0] == events[i-1].ID {
			continue
		}
		if len(ev.Parents) > maxParents {
			return nil, fmt.Errorf("colenc: event %s/%d has %d parents", ev.ID.Agent, ev.ID.Seq, len(ev.Parents))
		}
		if nExc == 0 {
			parents = binary.AppendUvarint(parents, uint64(i))
		} else {
			parents = binary.AppendUvarint(parents, uint64(i-prevIdx))
		}
		prevIdx = i
		nExc++
		parents = binary.AppendUvarint(parents, uint64(len(ev.Parents)))
		for _, p := range ev.Parents {
			// In-batch parents compress to a back-reference; the scan is
			// bounded because in real graphs a non-linear parent is
			// almost always recent. Fall back to the (agent, seq) form
			// beyond the window — both decode identically.
			enc := false
			for back := 1; back <= i && back <= maxBackrefScan; back++ {
				if events[i-back].ID == p {
					parents = binary.AppendUvarint(parents, uint64(back)<<1)
					enc = true
					break
				}
			}
			if !enc {
				parents = binary.AppendUvarint(parents, uint64(agentIdx[p.Agent])<<1|1)
				parents = binary.AppendUvarint(parents, uint64(p.Seq))
			}
		}
	}
	var parentsHdr []byte
	parentsHdr = binary.AppendUvarint(parentsHdr, uint64(nExc))
	parents = append(parentsHdr, parents...)

	flags := byte(0)
	if withDoc {
		flags |= FlagCachedDoc
	}
	// The decoder bounds inflation at maxDecompressed (decompression-
	// bomb defense), so content at or past that size must be written
	// uncompressed — otherwise Encode would produce a frame its own
	// Decode rejects, turning e.g. a store snapshot of a huge document
	// into an unreadable file. Compression is best-effort.
	if opts.Compress && len(content) >= maxDecompressed {
		opts.Compress = false
	}
	if opts.Compress {
		flags |= FlagCompressed
		var zbuf bytes.Buffer
		zw, err := flate.NewWriter(&zbuf, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		if _, err := zw.Write(content); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		content = zbuf.Bytes()
	}

	// Assemble body: count, then each column length-prefixed.
	var body []byte
	body = binary.AppendUvarint(body, uint64(n))
	for _, col := range [][]byte{agents, ops, parents, content} {
		body = binary.AppendUvarint(body, uint64(len(col)))
		body = append(body, col...)
	}
	if withDoc {
		body = binary.AppendUvarint(body, uint64(len(doc)))
		body = append(body, doc...)
	}

	out := make([]byte, 0, len(Magic)+5+len(body))
	out = append(out, Magic[:]...)
	out = append(out, flags)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(body, crcTable))
	out = append(out, crc[:]...)
	return append(out, body...), nil
}

func refDecodeLimit(data []byte, maxEvents int) (*Decoded, error) {
	r, flags, err := openFrame(data, batchFlags)
	if err != nil {
		return nil, err
	}
	body := r.buf
	// One run (a few bytes) may cover up to maxRunLen events, so the
	// body length times that factor bounds any honest count.
	limit := maxEvents
	if cap := len(body) * maxRunLen; cap < limit {
		limit = cap
	}
	n, err := r.count(limit, "event count")
	if err != nil {
		return nil, err
	}
	readCol := func() (*reader, error) {
		ln, err := r.count(len(body), "column length")
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(ln)
		if err != nil {
			return nil, err
		}
		return &reader{buf: b}, nil
	}
	agentsCol, err := readCol()
	if err != nil {
		return nil, err
	}
	opsCol, err := readCol()
	if err != nil {
		return nil, err
	}
	parentsCol, err := readCol()
	if err != nil {
		return nil, err
	}
	contentCol, err := readCol()
	if err != nil {
		return nil, err
	}
	var doc string
	hasDoc := flags&FlagCachedDoc != 0
	if hasDoc {
		docCol, err := readCol()
		if err != nil {
			return nil, err
		}
		doc = string(docCol.buf)
	}
	if !r.done() {
		return nil, fmt.Errorf("colenc: %d trailing bytes after last column", len(body)-r.off)
	}

	var d Decoder
	if err := d.decodeAgents(agentsCol, n); err != nil {
		return nil, err
	}
	ids := &d.table
	events, err := refDecodeOps(opsCol, contentCol, n, flags&FlagCompressed != 0)
	if err != nil {
		return nil, err
	}
	var cur refCursor
	for i := range events {
		events[i].ID = ids.refAt(&cur, i)
	}
	if err := refDecodeParents(parentsCol, events, ids); err != nil {
		return nil, err
	}
	return &Decoded{Events: events, Doc: doc, HasDoc: hasDoc}, nil
}

// refCursor is the state of sequential refAt calls.
type refCursor struct{ run, off int }

// refAt resolves event index i to its ID; i must increase from 0.
func (t *agentTable) refAt(c *refCursor, i int) ID {
	for c.off+t.runs[c.run].n <= i {
		c.off += t.runs[c.run].n
		c.run++
	}
	r := t.runs[c.run]
	return ID{Agent: t.names[r.agent], Seq: r.seq + (i - c.off)}
}

func refDecodeOps(r, content *reader, n int, compressed bool) ([]Event, error) {
	if compressed {
		raw, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(content.buf)), maxDecompressed))
		if err != nil {
			return nil, fmt.Errorf("colenc: decompress content: %w", err)
		}
		if len(raw) >= maxDecompressed {
			return nil, fmt.Errorf("colenc: decompressed content exceeds %d bytes", maxDecompressed)
		}
		content = &reader{buf: raw}
	}
	// Grow lazily: a run-length format legitimately describes many
	// events in few bytes, so trust the count only as runs materialise.
	events := make([]Event, 0, min(n, 4096))
	for len(events) < n {
		tag, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		runLen, err := r.count(n-len(events), "op run length")
		if err != nil {
			return nil, err
		}
		if runLen == 0 {
			return nil, fmt.Errorf("colenc: empty op run")
		}
		pos, err := r.count(math.MaxInt32, "op position")
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagInsert:
			if pos+runLen > math.MaxInt32 {
				return nil, fmt.Errorf("colenc: insert run position overflow")
			}
			for i := 0; i < runLen; i++ {
				ru, size := utf8.DecodeRune(content.buf[content.off:])
				if size == 0 {
					return nil, fmt.Errorf("colenc: content column exhausted")
				}
				if ru == utf8.RuneError && size == 1 {
					return nil, fmt.Errorf("colenc: invalid UTF-8 in content column")
				}
				content.off += size
				events = append(events, Event{Insert: true, Pos: pos + i, Content: ru})
			}
		case tagDeleteBack:
			if runLen-1 > pos {
				return nil, fmt.Errorf("colenc: backspace run of %d underflows position %d", runLen, pos)
			}
			for i := 0; i < runLen; i++ {
				events = append(events, Event{Pos: pos - i})
			}
		case tagDeleteFwd:
			for i := 0; i < runLen; i++ {
				events = append(events, Event{Pos: pos})
			}
		default:
			return nil, fmt.Errorf("colenc: bad op tag %d", tag)
		}
	}
	if !r.done() {
		return nil, fmt.Errorf("colenc: trailing bytes in ops column")
	}
	if !content.done() {
		return nil, fmt.Errorf("colenc: trailing bytes in content column")
	}
	return events, nil
}

func refDecodeParents(r *reader, events []Event, ids *agentTable) error {
	n := len(events)
	nExc, err := r.count(n, "parent entry count")
	if err != nil {
		return err
	}
	if n > 0 && nExc == 0 {
		return fmt.Errorf("colenc: missing parents entry for event 0")
	}
	// Events between explicit entries take the default parent list: the
	// immediately preceding event. Entry indexes are strictly
	// increasing, so one sweep interleaves defaults and entries. IDs
	// are already in place (decode order: agents, ops, IDs, parents).
	fillDefaults := func(from, to int) {
		for i := from; i < to; i++ {
			events[i].Parents = []ID{events[i-1].ID}
		}
	}
	next := 0 // next event index without parents yet
	idx := 0
	for e := 0; e < nExc; e++ {
		step, err := r.count(n, "parent entry index")
		if err != nil {
			return err
		}
		if e == 0 {
			if step != 0 {
				return fmt.Errorf("colenc: first parents entry at %d, want 0", step)
			}
			idx = 0
		} else {
			if step == 0 {
				return fmt.Errorf("colenc: non-increasing parents entry index")
			}
			idx += step
		}
		if idx >= n {
			return fmt.Errorf("colenc: parents entry index %d out of range", idx)
		}
		fillDefaults(next, idx)
		next = idx + 1
		nPar, err := r.count(maxParents, "parent count")
		if err != nil {
			return err
		}
		for p := 0; p < nPar; p++ {
			v, err := r.uvarint()
			if err != nil {
				return err
			}
			if v&1 == 0 {
				back := v >> 1
				if back == 0 || back > uint64(idx) {
					return fmt.Errorf("colenc: bad parent back-reference %d at event %d", back, idx)
				}
				events[idx].Parents = append(events[idx].Parents, events[idx-int(back)].ID)
			} else {
				ai := v >> 1
				if ai >= uint64(len(ids.names)) {
					return fmt.Errorf("colenc: parent agent index %d out of range", ai)
				}
				seq, err := r.count(math.MaxInt32, "parent seq")
				if err != nil {
					return err
				}
				events[idx].Parents = append(events[idx].Parents, ID{Agent: ids.names[ai], Seq: seq})
			}
		}
	}
	if !r.done() {
		return fmt.Errorf("colenc: trailing bytes in parents column")
	}
	fillDefaults(next, n)
	return nil
}
