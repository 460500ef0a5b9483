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
	"unicode/utf8"
	"unsafe"

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
// a delete removes the N runes at [Pos, Pos+N). One Apply's patches share
// one string: keeping one keeps all the text that Apply inserted alive.
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
	// aid is the graph's number for agent, plus one: 0, as in a Doc built as
	// a literal, until the first local edit asks the graph (localAgent).
	aid int
	// pending buffers remote events whose parents have not arrived yet
	// (causal delivery buffer).
	pending []Event
	// walker carries the replay planner's state from one Apply to the
	// next: the internal state of the concurrent section the last merge
	// ended inside, so that the next merge into it costs its new events,
	// or else an emptied tracker for the next section (core/replay.go).
	// Nil until a merge needs it: Load, Fork and TextAt build documents
	// without one, and a document only ever extended linearly never has
	// one.
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
	// The log keeps the text's UTF-8 and the rope copies it from there.
	from := len(d.log.Content())
	sp, err := d.log.AppendText(d.localAgent(), pos, text)
	if err != nil {
		return err
	}
	return d.text.InsertUTF8(pos, d.log.Content()[from:], sp.Len())
}

// localAgent returns the graph's number for the replica's agent, asking the
// graph at the first local edit only: a Doc's log is its own for life.
func (d *Doc) localAgent() int {
	if d.aid == 0 {
		d.aid = d.log.Graph.NumberAgent(d.agent) + 1
	}
	return d.aid - 1
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
	if _, err := d.log.AppendRun(d.localAgent(), oplog.Run{Kind: oplog.Delete, Pos: pos, Len: count}); err != nil {
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

// eventsFromRuns writes out the n events that runs cover in wire form.
func eventsFromRuns(n int, runs iter.Seq[colenc.Run]) []Event {
	w := newWireEvents(n)
	for r := range runs {
		w.run(r.ID.Agent, r.ID.Seq, r.Parents, r.Run, nil)
	}
	return w.events
}

// spareIDs is the room an export's ID array keeps past its n IDs for the
// parents of runs' first events: a burst is a run or two on a head or two.
const spareIDs = 4

// wireEvents is an export in wire form, written by index into arrays of its
// exact size: ids[i] is events[i].ID, and every parents slice is cut from
// ids, capacity capped — a run's first event's from the spare tail while it
// lasts — so an export of a burst is two objects.
type wireEvents struct {
	events []Event // the events written so far
	ids    []EventID
}

func newWireEvents(n int) wireEvents {
	return wireEvents{events: make([]Event, 0, n), ids: make([]EventID, n, n+spareIDs)}
}

// run writes out the events of the run r, the first of them (agent, seq)
// with the given parents, and returns them: the one place the run-length
// history is expanded for the per-event API. An insert run's characters
// are r.Content, or if that is nil text, their UTF-8. parents is read, not
// kept.
func (w *wireEvents) run(agent string, seq int, parents []colenc.ID, r oplog.Run, text []byte) []Event {
	i := len(w.events)
	w.events = w.events[:i+r.Len]
	var first []EventID
	switch k, np := len(w.ids), len(parents); {
	case np == 1 && i > 0 && EventID(parents[0]) == w.ids[i-1]:
		first = w.ids[i-1 : i : i] // written below with the ID it holds
	case np > 0 && k+np <= cap(w.ids):
		w.ids = w.ids[:k+np]
		first = w.ids[k : k+np : k+np]
	case np > 0:
		first = make([]EventID, np)
	}
	for j, p := range parents {
		first[j] = EventID(p)
	}
	insert, b := r.Kind == oplog.Insert, 0 // b: the next character's first byte in text
	for k := range r.Len {
		ev := &w.events[i+k]
		ev.ID, ev.Insert, ev.Pos, ev.Parents = EventID{Agent: agent, Seq: seq + k}, insert, r.Pos+k*int(r.Dir), first
		switch {
		case insert && r.Content != nil:
			ev.Content = r.Content[k]
		case insert:
			c, n := rune(text[b]), 1
			if c >= utf8.RuneSelf {
				c, n = utf8.DecodeRune(text[b:])
			}
			ev.Content, b = c, b+n
		}
		w.ids[i+k] = ev.ID
		first = w.ids[i+k : i+k+1 : i+k+1] // the next event's sole parent
	}
	return w.events[i:]
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
	w := newWireEvents(n)
	var raw [4]causal.RawID
	var buf [4]colenc.ID
	at := d.log.Last() // entry follows entry: one search, from the newest run
	for _, sp := range spans {
		for it := d.log.Graph.EntriesIn(sp); ; {
			entry, first, ps, ok := it.NextIDs(raw[:0])
			if !ok {
				break
			}
			parents := buf[:0]
			for _, p := range ps {
				parents = append(parents, colenc.ID(p))
			}
			d.log.EachRunFrom(&at, entry, func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, text []byte) bool {
				seq := first.Seq + int(lvs.Start-entry.Start)
				if lvs.Start > entry.Start {
					parents = append(parents[:0], colenc.ID{Agent: first.Agent, Seq: seq - 1})
				}
				evs := w.run(first.Agent, seq, parents, oplog.Run{Kind: kind, Pos: pos, Dir: dir, Len: lvs.Len()}, text)
				// The log holds U+FFFD for a character that is not a Unicode
				// scalar value, and the value beside it.
				for at, c, ok := d.log.Invalid(lvs.Start); ok && at < lvs.End; at, c, ok = d.log.Invalid(at + 1) {
					evs[at-lvs.Start].Content = c
				}
				return true
			})
		}
	}
	return w.events
}

// Events returns the document's entire event history in a valid causal
// order (parents before children).
func (d *Doc) Events() []Event {
	if d.log.Len() == 0 {
		return []Event{}
	}
	return d.eventsIn([]causal.Span{{End: causal.LV(d.log.Len())}})
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
func (d *Doc) Apply(events []Event) ([]Patch, error) { return d.merge(events, true) }

// merge is Apply, building the patches only if build is set.
func (d *Doc) merge(events []Event, build bool) ([]Patch, error) {
	emitFrom, from := causal.LV(d.log.Len()), len(d.log.Content())
	admitErr := d.admit(events)
	patches, err := d.emit(emitFrom, from, build)
	if admitErr != nil {
		err = admitErr
	}
	if err != nil {
		d.walker.Drop()
	}
	return patches, err
}

// patches is a merge's output, nil if none is wanted: the patches, and one
// string grown once whose substrings are the inserts' Contents.
type patches struct {
	list []Patch
	runs int // the patches to make room for, when known
	text strings.Builder
}

// open readies o for runs patches whose inserts' characters are text, in
// UTF-8, and returns it, or nil if build is not set.
func (o *patches) open(build bool, text []byte, runs int) *patches {
	if !build {
		return nil
	}
	o.text.Grow(len(text))
	o.runs = runs
	return o
}

// apply applies op to text and, unless o is nil, appends its patch.
func (o *patches) apply(text *rope.Rope, op core.XOp) error {
	if err := core.ApplyXOp(text, op); err != nil || o == nil {
		return err
	}
	if o.list == nil {
		o.list = make([]Patch, 0, o.runs)
	}
	p := Patch{Insert: op.Kind == oplog.Insert, Pos: op.Pos, N: op.N}
	if p.Insert {
		from := o.text.Len()
		o.text.Write(op.Text)
		p.Content = o.text.String()[from:] // within the room open made: never moved or written again
	}
	o.list = append(o.list, p)
	return nil
}

// runAt returns the run of operations that starts at events[i], content
// left out, and the index j it ends before: events[i:j] are one agent's
// consecutive sequence numbers, each after the first the sole child of
// its predecessor, and their operations one run-length pattern. Seqs are
// compared before names, and an insert run is extended in place.
func runAt(events []Event, i int) (op oplog.Run, j int) {
	op = oplog.Unit(events[i].Insert, events[i].Pos)
	for j = i + 1; j < len(events); j++ {
		ev, prev := &events[j], &events[j-1]
		if ev.ID.Seq != prev.ID.Seq+1 || len(ev.Parents) != 1 || ev.Parents[0].Seq != prev.ID.Seq ||
			!sameName(ev.ID.Agent, prev.ID.Agent) || !sameName(ev.Parents[0].Agent, prev.ID.Agent) {
			break
		}
		if op.Kind == oplog.Insert {
			if !ev.Insert || ev.Pos != op.Pos+op.Len {
				break
			}
			op.Len++
		} else if ev.Insert || op.Extend(oplog.Unit(false, ev.Pos)) == 0 {
			break
		}
	}
	return op, j
}

// sameName reports whether a == b, without a call when they share their
// bytes, as the names of one decoded batch do.
func sameName(a, b string) bool {
	return len(a) == len(b) && (unsafe.StringData(a) == unsafe.StringData(b) || a == b)
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
// returned. Each costs one lookup of the run's IDs, by the agent's number,
// however long it is; its parents go to the graph as Refs, with no lookup
// for the last event met that the graph holds (the parent of nearly every
// stretch) and one for any other. progress reports whether any event left
// the buffer. An event the log rejects is dropped and ends the sweep with
// the error; the events after it go to waiting unexamined.
func (d *Doc) sweep(buf, waiting []Event) (_ []Event, progress bool, err error) {
	g := d.log.Graph
	// Scratch for one run's parents and characters; the log copies both.
	var pbuf [4]causal.Ref
	var cbuf [128]rune
	parents, content := pbuf[:0], cbuf[:0]
	var agents agentNums
	last, lastAt, held := EventID{}, causal.Ref{}, false // the last event met that the graph holds
	reserved := false                                    // the log has room for the characters of buf
	for i := 0; i < len(buf); {
		op, j := runAt(buf, i)
		agent := buf[i].ID.Agent
		aid := agents.num(g, agent)
		for k := i; k < j; {
			seq := buf[k].ID.Seq
			at, known, n := g.SeqRun(aid, seq, j-k)
			if known {
				progress = true // duplicates: drop
				last, lastAt, held = buf[k+n-1].ID, causal.Ref{LV: at.LV + causal.LV(n) - 1, Ent: at.Ent}, true
				k += n
				continue
			}
			// buf[k:k+n] are new. The first hangs on its predecessor, the last
			// event met (stretches alternate), or leads the run.
			parents = parents[:0]
			ready := true
			for _, p := range buf[k].Parents {
				if held && p.Seq == last.Seq && p.Agent == last.Agent {
					parents = append(parents, lastAt)
					continue
				}
				pat, has, _ := g.SeqRun(agents.num(g, p.Agent), p.Seq, 1)
				if ready = has; !ready {
					break
				}
				parents = append(parents, pat)
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
			last, lastAt, held = buf[k+n-1].ID, causal.Ref{LV: causal.LV(g.Len() - 1), Ent: uint32(g.Entries() - 1)}, true // the newest event, in the last entry
			progress = true
			k += n
		}
		i = j
	}
	return waiting, progress, nil
}

// emit transforms the events admitted since emitFrom (their characters
// the log's UTF-8 from byte from on), applies them to the text and, if
// build is set, returns the patches. If it fails part-way, they are the
// ones applied.
func (d *Doc) emit(emitFrom causal.LV, from int, build bool) ([]Patch, error) {
	end := causal.LV(d.log.Len())
	if emitFrom == end {
		return nil, nil // nothing admitted
	}
	var applyErr error
	// Fast path for real-time collaboration: if the document had a
	// single head and the admitted events linearly extend it, no
	// transformation is needed and no graph scan is required; whole
	// operation runs are applied to the rope in one go. The frontier is
	// critical then, so a section kept from earlier merges has closed.
	if d.linearExtension(emitFrom) {
		d.walker.Drop()
		var sink patches
		out := sink.open(build, d.log.Content()[from:], d.log.RunsFrom(&d.emitted, emitFrom))
		d.log.EachRunFrom(&d.emitted, causal.Span{Start: emitFrom, End: end},
			func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, text []byte) bool {
				if dir < 0 {
					pos -= lvs.Len() - 1 // backspace run: the range ends at pos
				}
				applyErr = out.apply(d.text, core.XOp{Kind: kind, Pos: pos, N: lvs.Len(), Text: text})
				return applyErr == nil
			})
		return sink.list, applyErr
	}
	// Transform and apply the new events span at a time (this sink escapes).
	if d.walker == nil {
		d.walker = new(core.Walker)
	}
	var sink patches
	out := sink.open(build, d.log.Content()[from:], 0)
	err := d.walker.TransformRange(d.log, emitFrom, func(_ causal.LV, op core.XOp) {
		if applyErr == nil {
			applyErr = out.apply(d.text, op)
		}
	})
	if err == nil {
		err = applyErr
	}
	return sink.list, err
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
	// What other holds past d's version is exactly what d lacks when other
	// knows that version; when it does not, d's summary says what d has.
	evs, err := other.EventsSince(d.Version())
	if err != nil {
		evs, err = other.EventsSinceSummary(d.Summary())
	}
	if err != nil {
		return err
	}
	_, err = d.merge(evs, false)
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
	sub := oplog.New()
	var ids []causal.RawID
	var parents []causal.LV
	var content []rune
	for _, sp := range inV {
		// Copy run-at-a-time so the sub-log keeps the run-length encoding
		// (and its replay stays on the span-wise path). Runs are clipped
		// to graph entries: within one entry the events are by one agent
		// with consecutive seqs, each parented on its predecessor. The
		// sub-log holds every event of the version before the entry, so
		// the entry's parents are found there by ID.
		for w := d.log.Graph.EntriesIn(sp); ; {
			entry, id, ps, ok := w.NextIDs(ids)
			if !ok {
				break
			}
			ids, parents = ps, parents[:0]
			for _, p := range ps {
				lv, ok := sub.Graph.LVOf(p)
				if !ok {
					return "", fmt.Errorf("egwalker: internal: parent %v outside version", p)
				}
				parents = append(parents, lv)
			}
			var addErr error
			d.log.EachRun(entry, func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, text []byte) bool {
				r := oplog.Run{Kind: kind, Pos: pos, Dir: dir, Len: lvs.Len()}
				if kind == oplog.Insert {
					content = d.log.AppendRunes(content[:0], lvs.Start, text)
					r.Content = content
				}
				nsp, err := sub.AddRun(id.Agent, id.Seq+int(lvs.Start-entry.Start), parents, r)
				if err != nil {
					addErr = err
					return false
				}
				// The entry's next run hangs on the last event of this one.
				parents = append(parents[:0], nsp.End-1)
				return true
			})
			if addErr != nil {
				return "", addErr
			}
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
