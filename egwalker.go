package egwalker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"iter"
	"sort"
	"strings"

	"egwalker/internal/causal"
	"egwalker/internal/colenc"
	"egwalker/internal/core"
	"egwalker/internal/encoding"
	"egwalker/internal/oplog"
	"egwalker/internal/rope"
)

// EventID identifies an event globally: the agent that generated it and
// a per-agent sequence number (0-based, contiguous).
type EventID struct {
	Agent string
	Seq   int
}

func (id EventID) String() string { return fmt.Sprintf("%s/%d", id.Agent, id.Seq) }

// Event is one editing event in wire form: a single-character insertion
// or deletion, its unique ID, and the IDs of its parents (the version
// the replica was at when the event was generated).
type Event struct {
	ID      EventID
	Parents []EventID
	Insert  bool
	Pos     int
	Content rune // inserts only
}

// Patch is an index-based update to the local document text resulting
// from merging remote events: apply patches in order to mirror the
// Doc's text in an external editor buffer. A patch covers a whole run
// of consecutive units: an insert places Content at rune position Pos;
// a delete removes the N runes at [Pos, Pos+N).
type Patch struct {
	Insert  bool
	Pos     int
	N       int    // runes affected; == utf8 rune count of Content for inserts
	Content string // inserts only
}

// Version identifies a document state: the frontier of the event graph,
// as wire IDs. Empty means the empty document.
type Version []EventID

// Doc is one replica of a collaboratively edited text document.
// A Doc is not safe for concurrent use by multiple goroutines.
type Doc struct {
	log   *oplog.Log
	text  *rope.Rope
	agent string
	// pending buffers remote events whose parents have not arrived yet
	// (causal delivery buffer).
	pending []Event
	// walker carries the replay planner's state from one Apply to the
	// next: the internal state of the concurrent section the last merge
	// ended inside, so that the next merge into it costs its new events
	// (core/replay.go). Nil until a merge needs it: Load, Fork and TextAt
	// build documents without one, and a document only ever extended
	// linearly never has one.
	walker *core.Walker
	// emitted is where the last linear Apply stopped reading the log: the
	// next one starts there without a search.
	emitted oplog.Cursor
}

// NewDoc returns an empty document for a replica identified by agent.
// Every replica editing the same document must use a distinct agent
// string.
func NewDoc(agent string) *Doc {
	return &Doc{log: oplog.New(), text: rope.New(), agent: agent}
}

// Agent returns the replica's agent name.
func (d *Doc) Agent() string { return d.agent }

// Len returns the document length in runes.
func (d *Doc) Len() int { return d.text.Len() }

// Text returns the current document text.
func (d *Doc) Text() string { return d.text.String() }

// NumEvents returns the number of events in the document's history.
func (d *Doc) NumEvents() int { return d.log.Len() }

// PendingEvents returns the number of buffered events still waiting for
// missing parents.
func (d *Doc) PendingEvents() int { return len(d.pending) }

// Insert inserts text at rune position pos as a local edit.
func (d *Doc) Insert(pos int, text string) error {
	if text == "" {
		return nil
	}
	if pos < 0 || pos > d.text.Len() {
		return fmt.Errorf("egwalker: insert at %d out of range [0,%d]", pos, d.text.Len())
	}
	// The log and the rope copy the characters: a keystroke's stay on the
	// stack.
	var buf [64]rune
	runes := buf[:0]
	for _, c := range text {
		runes = append(runes, c)
	}
	if _, err := d.log.AppendRun(d.agent, oplog.Run{Kind: oplog.Insert, Pos: pos, Dir: 1, Len: len(runes), Content: runes}); err != nil {
		return err
	}
	return d.text.InsertRunes(pos, runes)
}

// Delete removes count runes starting at rune position pos as a local
// edit.
func (d *Doc) Delete(pos, count int) error {
	if count == 0 {
		return nil
	}
	if pos < 0 || count < 0 || pos+count > d.text.Len() {
		return fmt.Errorf("egwalker: delete [%d,%d) out of range [0,%d]", pos, pos+count, d.text.Len())
	}
	if _, err := d.log.AppendRun(d.agent, oplog.Run{Kind: oplog.Delete, Pos: pos, Len: count}); err != nil {
		return err
	}
	return d.text.Delete(pos, count)
}

// Fork returns an independent replica of the document for a new agent:
// same history and text, after which the two replicas evolve separately
// and can merge later. Fork is how a new device or user joins without a
// network round-trip to every peer.
func (d *Doc) Fork(agent string) (*Doc, error) {
	var buf bytes.Buffer
	if err := d.Save(&buf, SaveOptions{CacheFinalDoc: true}); err != nil {
		return nil, err
	}
	nd, err := Load(&buf, agent)
	if err != nil {
		return nil, err
	}
	// Buffered events carry over: they are part of what this replica has
	// heard, just not yet mergeable.
	nd.pending = append([]Event(nil), d.pending...)
	return nd, nil
}

// Knows reports whether the event with the given ID is part of the
// document's history.
func (d *Doc) Knows(id EventID) bool {
	return d.log.Graph.HasID(causal.RawID{Agent: id.Agent, Seq: id.Seq})
}

// KnownSubset returns the subset of v whose events are in this
// document's history. A remote replica's version may reference events
// this replica has never seen (edits that travelled a different path);
// those cannot anchor a graph diff, so callers computing what to send
// — netsync.Sync, a server answering an incremental-resume hello —
// first narrow the version to what is known here. Any extra events
// sent as a result are deduplicated by Apply on the other side.
func (d *Doc) KnownSubset(v Version) Version {
	known := v[:0:0]
	for _, id := range v {
		if d.Knows(id) {
			known = append(known, id)
		}
	}
	return known
}

// Fingerprint returns a cheap digest of the replica's state: its
// version (canonically ordered) and its text. Two replicas with equal
// fingerprints have, with overwhelming probability, seen the same
// events and hold identical text — gossiping fingerprints is a cheap
// convergence check before falling back to a full comparison or sync.
func (d *Doc) Fingerprint() uint64 {
	h := fnv.New64a()
	v := d.Version()
	sort.Slice(v, func(i, j int) bool {
		if v[i].Agent != v[j].Agent {
			return v[i].Agent < v[j].Agent
		}
		return v[i].Seq < v[j].Seq
	})
	// Length-prefix the agent name so (agent, seq) pairs can never
	// collide across different splits of the same bytes.
	var num [binary.MaxVarintLen64]byte
	for _, id := range v {
		h.Write(num[:binary.PutUvarint(num[:], uint64(len(id.Agent)))])
		io.WriteString(h, id.Agent)
		h.Write(num[:binary.PutUvarint(num[:], uint64(id.Seq))])
	}
	h.Write([]byte{0xff})
	io.WriteString(h, d.text.String())
	return h.Sum64()
}

// Version returns the document's current version.
func (d *Doc) Version() Version {
	f := d.log.Graph.Heads()
	v := make(Version, len(f))
	for i, lv := range f {
		id := d.log.Graph.IDOf(lv)
		v[i] = EventID{Agent: id.Agent, Seq: id.Seq}
	}
	return v
}

// eventsFromRuns writes out the n events that runs cover in wire form
// (appendRun).
func eventsFromRuns(n int, runs iter.Seq[colenc.Run]) []Event {
	out, ids := make([]Event, 0, n), make([]EventID, n)
	for r := range runs {
		out = appendRun(out, ids, r.ID.Agent, r.ID.Seq, r.Parents, r.Run)
	}
	return out
}

// appendRun appends to out the events of the run r in wire form, one
// Event each, the first of them (agent, seq) with the given parents: the
// one place the run-length history is expanded for the per-event API.
// ids[i] is out[i].ID, and the parents slice of an event whose sole parent
// is its predecessor in out is cut from it, capacity capped. parents is
// read, not kept.
func appendRun(out []Event, ids []EventID, agent string, seq int, parents []colenc.ID, r oplog.Run) []Event {
	for k := 0; k < r.Len; k++ {
		i := len(out)
		ev := Event{
			ID:     EventID{Agent: agent, Seq: seq + k},
			Insert: r.Kind == oplog.Insert,
			Pos:    r.Pos + k*int(r.Dir),
		}
		if ev.Insert {
			ev.Content = r.Content[k]
		}
		switch {
		case k > 0 || (i > 0 && len(parents) == 1 && EventID(parents[0]) == ids[i-1]):
			ev.Parents = ids[i-1 : i : i]
		case len(parents) > 0:
			ev.Parents = make([]EventID, len(parents))
			for j, p := range parents {
				ev.Parents[j] = EventID(p)
			}
		}
		ids[i] = ev.ID
		out = append(out, ev)
	}
	return out
}

// eventsIn exports the events of spans (ascending, disjoint) in wire
// form. It walks the log as colenc.LogRuns does, but with each entry's
// parents in buffers on its stack: a run handed to a callback would take
// them to the heap. What it allocates is what it returns.
func (d *Doc) eventsIn(spans []causal.Span) []Event {
	n := 0
	for _, sp := range spans {
		n += sp.Len()
	}
	if n == 0 {
		return nil
	}
	out, ids := make([]Event, 0, n), make([]EventID, n)
	var raw [4]causal.RawID
	var buf [4]colenc.ID
	var at oplog.Cursor // entry follows entry: one search for the first run
	for _, sp := range spans {
		for w := d.log.Graph.EntriesIn(sp); ; {
			entry, first, ps, ok := w.NextIDs(raw[:0])
			if !ok {
				break
			}
			parents := buf[:0]
			for _, p := range ps {
				parents = append(parents, colenc.ID(p))
			}
			d.log.EachRunFrom(&at, entry, func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, content []rune) bool {
				seq := first.Seq + int(lvs.Start-entry.Start)
				if lvs.Start > entry.Start {
					parents = append(parents[:0], colenc.ID{Agent: first.Agent, Seq: seq - 1})
				}
				out = appendRun(out, ids, first.Agent, seq, parents, oplog.Run{Kind: kind, Pos: pos, Dir: dir, Len: lvs.Len(), Content: content})
				return true
			})
		}
	}
	return out
}

// Events returns the document's entire event history in a valid causal
// order (parents before children).
func (d *Doc) Events() []Event {
	n := d.log.Len()
	return eventsFromRuns(n, colenc.LogRuns(d.log, causal.Span{End: causal.LV(n)}))
}

// EventsSince returns the events this replica has that are not within
// the given version, in a valid causal order. Pass the other replica's
// Version() to compute what to send it.
func (d *Doc) EventsSince(v Version) ([]Event, error) {
	// A version is a head or two: what is not returned stays on the stack.
	var refs, doms, heads [4]causal.Ref
	var only, other [8]causal.Span
	f, err := d.resolveVersion(v, refs[:0], doms[:0])
	if err != nil {
		return nil, err
	}
	spans, _ := d.log.Graph.DiffInto(d.log.Graph.Refs(d.log.Graph.Heads(), heads[:0]), f, only[:0], other[:0])
	return d.eventsIn(spans), nil
}

// resolveVersion looks wire IDs up, in refs, and reduces them to their
// dominators, in buf; both are overwritten from their start. Every
// referenced event must be known locally.
func (d *Doc) resolveVersion(v Version, refs, buf []causal.Ref) ([]causal.Ref, error) {
	g := d.log.Graph
	refs = refs[:0]
	for _, id := range v {
		at, ok, _ := g.SeqRun(g.AgentNum(id.Agent), id.Seq, 1)
		if !ok {
			return nil, fmt.Errorf("egwalker: unknown event %v in version", id)
		}
		refs = append(refs, at)
	}
	return g.DominatorsInto(refs, buf), nil
}

// Apply merges remote events into the document, returning the patches
// that were applied to the local text (in order). Events already known
// are skipped; events whose parents are missing are buffered and merged
// automatically once the parents arrive.
//
// If an event is rejected (a negative sequence number), it is dropped
// and Apply returns an error after merging what it admitted before it —
// the patches for those come back with the error — while the events
// after it stay buffered for the next call. If a malformed event (one
// whose position is invalid in its parent version) is encountered,
// Apply returns an error together with the patches it had applied before
// it; the document text is left at that state, the last consistent one,
// and the offending history should be discarded (a well-behaved peer
// never produces either, so this indicates corruption or a hostile
// peer).
func (d *Doc) Apply(events []Event) ([]Patch, error) {
	emitFrom := causal.LV(d.log.Len())
	admitErr := d.admit(events)
	patches, err := d.emit(emitFrom)
	if admitErr != nil {
		err = admitErr
	}
	if err != nil {
		d.walker.Drop()
	}
	return patches, err
}

// runAt returns the run of operations that starts at events[i], content
// left out, and the index j it ends before: events[i:j] are one agent's
// consecutive sequence numbers, each after the first the sole child of
// its predecessor, and their operations one run-length pattern. Seqs are
// compared before names.
func runAt(events []Event, i int) (op oplog.Run, j int) {
	op = oplog.Unit(events[i].Insert, events[i].Pos)
	for j = i + 1; j < len(events); j++ {
		ev, prev := &events[j], &events[j-1]
		if ev.ID.Seq != prev.ID.Seq+1 || len(ev.Parents) != 1 || ev.Parents[0].Seq != prev.ID.Seq ||
			ev.ID.Agent != prev.ID.Agent || ev.Parents[0].Agent != prev.ID.Agent ||
			op.Extend(oplog.Unit(ev.Insert, ev.Pos)) == 0 {
			break
		}
	}
	return op, j
}

// agentNums is a sweep's memo of the graph's numbers for the last few
// names it looked up, a compare being cheaper than a hash. A name the
// graph has not met is not kept: its first run numbers it.
type agentNums struct {
	names [4]string
	nums  [4]int
	n     int // names filled in so far; the next goes in at n % 4
}

// num returns the graph's number for name, -1 if the graph has not met it.
func (a *agentNums) num(g *causal.Graph, name string) int {
	for i := range min(a.n, len(a.names)) {
		if a.names[i] == name {
			return a.nums[i]
		}
	}
	aid := g.AgentNum(name)
	if aid >= 0 {
		a.names[a.n%len(a.names)], a.nums[a.n%len(a.names)] = name, aid
		a.n++
	}
	return aid
}

// admit moves into the log every event of the causal delivery buffer —
// what earlier calls left waiting, then events — whose parents are all
// present, sweeping the buffer until a sweep admits nothing. Events is
// neither modified nor kept: only those that must wait are copied.
func (d *Doc) admit(events []Event) error {
	waiting, progress, err := d.sweep(d.pending, nil)
	if err == nil {
		var more bool
		waiting, more, err = d.sweep(events, waiting)
		progress = progress || more
	} else {
		waiting = append(waiting, events...)
	}
	for err == nil && progress && len(waiting) > 0 {
		waiting, progress, err = d.sweep(waiting, nil)
	}
	d.pending = waiting
	return err
}

// sweep goes through buf once, in order and a run at a time (runAt): a
// stretch of a run the graph already holds is dropped, a new stretch
// whose first event's parents are all present is appended to the log
// whole, and one that must wait is appended to waiting, which is
// returned. Each costs one lookup of the run's IDs and one of its
// parents however long it is, by the agents' numbers, and the parents go
// to the graph with the entries the lookups found. progress reports
// whether any event left the buffer. An event the log rejects is dropped
// and ends the sweep with the error; the events after it go to waiting
// unexamined.
func (d *Doc) sweep(buf, waiting []Event) (_ []Event, progress bool, err error) {
	g := d.log.Graph
	// Scratch for one run's parents and characters; the log copies both.
	var pbuf [4]causal.Ref
	var cbuf [128]rune
	parents, content := pbuf[:0], cbuf[:0]
	var agents agentNums
	reserved := false // the log has room for the characters of buf
	for i := 0; i < len(buf); {
		op, j := runAt(buf, i)
		agent := buf[i].ID.Agent
		aid := agents.num(g, agent)
		var prev causal.Ref // of buf[k-1], when the graph holds it
		for k := i; k < j; {
			seq := buf[k].ID.Seq
			at, known, n := g.SeqRun(aid, seq, j-k)
			if known {
				progress = true // duplicates: drop
				prev = causal.Ref{LV: at.LV + causal.LV(n) - 1, Ent: at.Ent}
				k += n
				continue
			}
			// buf[k:k+n] are new. The first of them hangs on the run's
			// own parents when it leads the run, else on its predecessor,
			// which the graph holds (stretches alternate).
			parents = parents[:0]
			ready := true
			if k > i {
				parents = append(parents, prev)
			} else {
				for _, p := range buf[i].Parents {
					pat, has, _ := g.SeqRun(agents.num(g, p.Agent), p.Seq, 1)
					if ready = has; !ready {
						break
					}
					parents = append(parents, pat)
				}
			}
			if !ready {
				waiting = append(waiting, buf[k:k+n]...)
				k += n
				continue
			}
			r := oplog.Run{Kind: op.Kind, Pos: op.Pos + (k-i)*int(op.Dir), Dir: op.Dir, Len: n}
			if op.Kind == oplog.Insert {
				if !reserved {
					// Once, before the first characters go in, for all that
					// may follow: the log's arena moves once per sweep, not
					// at every step of its growth. Every event left in buf
					// may be an insert; counting the ones that are would be
					// a pass over buf from cold memory, a tenth of what a
					// linear merge costs.
					d.log.Reserve(0, len(buf)-k)
					reserved = true
				}
				content = content[:0]
				for _, ev := range buf[k : k+n] {
					content = append(content, ev.Content)
				}
				r.Content = content
			}
			if _, err := d.log.AddRunNum(agent, aid, seq, parents, r); err != nil {
				return append(waiting, buf[k+1:]...), true, err
			}
			progress = true
			k += n
		}
		i = j
	}
	return waiting, progress, nil
}

// emit transforms the events admitted since emitFrom and applies them
// to the text, returning the patches. If it fails part-way, the patches
// are the ones that were applied.
func (d *Doc) emit(emitFrom causal.LV) ([]Patch, error) {
	end := causal.LV(d.log.Len())
	if emitFrom == end {
		return nil, nil // nothing admitted
	}
	var patches []Patch
	var applyErr error
	// Fast path for real-time collaboration: if the document had a
	// single head and the admitted events linearly extend it, no
	// transformation is needed and no graph scan is required; whole
	// operation runs are applied to the rope in one go. The frontier is
	// critical then, so a section kept from earlier merges has closed.
	if d.linearExtension(emitFrom) {
		d.walker.Drop()
		d.log.EachRunFrom(&d.emitted, causal.Span{Start: emitFrom, End: end},
			func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, content []rune) bool {
				n := lvs.Len()
				if kind == oplog.Insert {
					if applyErr = d.text.InsertRunes(pos, content); applyErr == nil {
						patches = append(patches, Patch{Insert: true, Pos: pos, N: n, Content: string(content)})
					}
				} else {
					if dir < 0 {
						pos -= n - 1 // backspace run: the range ends at pos
					}
					if applyErr = d.text.Delete(pos, n); applyErr == nil {
						patches = append(patches, Patch{Pos: pos, N: n})
					}
				}
				return applyErr == nil
			})
		return patches, applyErr
	}
	// Transform and apply the newly admitted events, span at a time.
	if d.walker == nil {
		d.walker = new(core.Walker)
	}
	err := d.walker.TransformRange(d.log, emitFrom, func(_ causal.LV, op core.XOp) {
		if applyErr != nil {
			return
		}
		if applyErr = core.ApplyXOp(d.text, op); applyErr != nil {
			return
		}
		p := Patch{Insert: op.Kind == oplog.Insert, Pos: op.Pos, N: op.N}
		if p.Insert {
			p.Content = string(op.Content)
		}
		patches = append(patches, p)
	})
	if err == nil {
		err = applyErr
	}
	return patches, err
}

// linearExtension reports whether the events in [from, Len) form a
// linear chain whose first event's sole parent is from-1 (or the root
// when from == 0) — i.e. the graph stayed a single branch, so the new
// operations need no transformation.
func (d *Doc) linearExtension(from causal.LV) bool {
	g := d.log.Graph
	end := causal.LV(d.log.Len())
	if f := g.Heads(); len(f) != 1 || f[0] != end-1 {
		return false
	}
	var buf [4]causal.Ref
	for w := g.EntriesIn(causal.Span{Start: from, End: end}); ; {
		run, _, parents, ok := w.NextRefs(buf[:0])
		if !ok {
			return true
		}
		if run.Start == 0 && len(parents) != 0 || run.Start > 0 && (len(parents) != 1 || parents[0].LV != run.Start-1) {
			return false
		}
	}
}

// Merge pulls everything other has that d lacks. Both documents are
// unchanged except d gaining events.
func (d *Doc) Merge(other *Doc) error {
	// Compute what d is missing: ask other for events since d's version,
	// restricted to events other actually knows.
	known := Version{}
	for _, id := range d.Version() {
		if other.log.Graph.HasID(causal.RawID{Agent: id.Agent, Seq: id.Seq}) {
			known = append(known, id)
		}
	}
	evs, err := other.EventsSince(known)
	if err != nil {
		return err
	}
	_, err = d.Apply(evs)
	return err
}

// TextAt reconstructs the document text at a historical version by
// replaying the subset of the event graph visible at that version.
func (d *Doc) TextAt(v Version) (string, error) {
	f, err := d.resolveVersion(v, nil, nil)
	if err != nil {
		return "", err
	}
	_, inV := d.log.Graph.DiffInto(nil, f, nil, nil)
	// The sub-log receives the events of inV in order, so an event's LV
	// there is its rank in inV: the length of the spans before its own
	// (before[i] for inV[i]) plus its offset into it.
	before := make([]causal.LV, len(inV))
	for i := 1; i < len(inV); i++ {
		before[i] = before[i-1] + causal.LV(inV[i-1].Len())
	}
	sub := oplog.New()
	var addErr error
	var parents []causal.LV
	for _, sp := range inV {
		// Copy run-at-a-time so the sub-log keeps the run-length encoding
		// (and its replay stays on the span-wise path). Runs are clipped
		// to graph entries: within one entry the events are by one agent
		// with consecutive seqs, each parented on its predecessor.
		d.log.Graph.EachEntryIn(sp, func(entry causal.Span, agent string, seq int, ps []causal.LV) bool {
			parents = parents[:0]
			for _, p := range ps {
				i := sort.Search(len(inV), func(i int) bool { return inV[i].End > p })
				if i == len(inV) || p < inV[i].Start {
					addErr = fmt.Errorf("egwalker: internal: parent %d outside version", p)
					return false
				}
				parents = append(parents, before[i]+p-inV[i].Start)
			}
			d.log.EachRun(entry, func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, content []rune) bool {
				r := oplog.Run{Kind: kind, Pos: pos, Dir: dir, Len: lvs.Len(), Content: content}
				nsp, err := sub.AddRun(agent, seq+int(lvs.Start-entry.Start), parents, r)
				if err != nil {
					addErr = err
					return false
				}
				// The entry's next run hangs on the last event of this one.
				parents = append(parents[:0], nsp.End-1)
				return true
			})
			return addErr == nil
		})
		if addErr != nil {
			return "", addErr
		}
	}
	return core.ReplayText(sub)
}

// SaveOptions control the on-disk format (see the paper §3.8,
// docs/FORMAT.md, and the file-size experiments).
type SaveOptions struct {
	// CacheFinalDoc embeds the document text so Load is instant (no
	// replay).
	CacheFinalDoc bool
	// OmitDeletedContent drops deleted characters' content (smaller
	// files, like Yjs; historical versions become unreconstructable).
	// Implies the legacy format, which is the only one carrying the
	// pruning bitmap.
	OmitDeletedContent bool
	// Compress DEFLATE-compresses inserted content.
	Compress bool
	// Legacy writes the original "EGW1" whole-document format instead
	// of the compact columnar one. Load reads both transparently.
	Legacy bool
}

// Save writes the document (event graph, optionally plus text) to w.
// By default it emits the compact columnar format (docs/FORMAT.md);
// opts.Legacy selects the original encoding. Load reads either.
func (d *Doc) Save(w io.Writer, opts SaveOptions) error {
	if opts.Legacy || opts.OmitDeletedContent {
		var deleted map[causal.LV]bool
		var err error
		if opts.OmitDeletedContent {
			deleted, err = encoding.DeletedSet(d.log)
			if err != nil {
				return err
			}
		}
		return encoding.Encode(w, d.log, encoding.Options{
			CacheFinalDoc:      opts.CacheFinalDoc,
			OmitDeletedContent: opts.OmitDeletedContent,
			Compress:           opts.Compress,
		}, d.text.String(), deleted)
	}
	var text *rope.Rope
	if opts.CacheFinalDoc {
		text = d.text
	}
	data, err := colenc.SaveDocument(d.log, text, colenc.Options{Compress: opts.Compress})
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Load reads a document saved with Save, sniffing the format from the
// file's magic: both the compact columnar format and the legacy "EGW1"
// format load transparently. The loading replica adopts agent for its
// future local edits. If the file embeds the final text, loading costs
// no replay at all (the paper's "cached load").
func Load(r io.Reader, agent string) (*Doc, error) {
	data, err := readFile(r)
	if err != nil {
		return nil, err
	}
	d := &Doc{agent: agent}
	if colenc.Sniff(data) {
		doc, err := colenc.LoadDocument(data)
		if err != nil {
			return nil, err
		}
		d.log, d.text = doc.Log, doc.Text
	} else {
		dec, err := encoding.Decode(data)
		if err != nil {
			return nil, err
		}
		d.log = dec.Log
		if dec.HasDoc {
			d.text = rope.NewFromString(dec.Doc)
		}
	}
	if d.text != nil {
		return d, nil
	}
	if d.text, err = core.ReplayRope(d.log); err != nil {
		return nil, err
	}
	return d, nil
}

// readFile reads r to its end. A reader that reports what it holds —
// interface{ Len() int }, as *bytes.Reader, *bytes.Buffer and
// *strings.Reader do — is read into one buffer of that size and a byte
// more, the byte that shows it ended there, instead of io.ReadAll's
// doubling one; if it holds more after all, the rest is read as
// io.ReadAll would.
func readFile(r io.Reader) ([]byte, error) {
	sized, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	data := make([]byte, max(sized.Len(), 0)+1)
	n, err := io.ReadFull(r, data)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return data[:n], nil
	case err != nil:
		return nil, err
	}
	rest, err := io.ReadAll(r)
	return append(data, rest...), err
}

// String summarises the document for debugging.
func (d *Doc) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Doc{agent: %s, events: %d, len: %d, version: [", d.agent, d.log.Len(), d.text.Len())
	v := d.Version()
	sort.Slice(v, func(i, j int) bool { return v[i].Agent < v[j].Agent })
	for i, id := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(id.String())
	}
	b.WriteString("]}")
	return b.String()
}
