package colenc

import (
	"fmt"
	"math"
	"slices"
	"unicode/utf8"

	"egwalker/internal/causal"
	"egwalker/internal/oplog"
	"egwalker/internal/rope"
	"egwalker/internal/utf8x"
)

// Document is a whole-document frame, loaded.
type Document struct {
	Log *oplog.Log
	// Text is the cached final text, nil if the frame embeds none: valid
	// UTF-8, of a length the history allows, decoded from the frame's
	// bytes into the rope's leaves.
	Text *rope.Rope
}

// LoadDocument decodes a whole-document frame — an entire history in
// causal order, every parent an earlier event of the frame, as the root
// package's Save writes it — straight into an operation log. In such a
// frame the events are the log in LV order, so nothing is looked up and
// nothing is built on the way: event i is LV i and a back-reference is an
// LV difference; the ops column's runs are the log's spans and the content
// column, checked and copied, its character arena; a stretch of one agent run
// that no parents entry cuts is a graph entry, and an (agent, seq) parent
// is found through the graph's per-agent index under a number the agent
// was given once.
//
// The arrays are sized before they are filled and never grow: the spans
// and the characters from a count of the ops and content columns, the
// graph from a first walk of the agents and parents columns, which the
// second walk fills. Every count is of bytes that are there, none is the
// header's claim, and a file that Save wrote leaves no slack in them. The
// checks are DecodeRuns' — the same column readers make them — and the
// graph's own (causal.Graph.AddNum): what DecodeRuns and a run-by-run
// rebuild accept loads, and the same log comes of it; the rest is an
// error. A cached text must be valid UTF-8 and as long as some outcome of
// the history: no longer than what it inserts, no shorter than that less
// what it deletes (two concurrent deletes may be of one character).
func LoadDocument(data []byte) (Document, error) {
	f, err := splitFrame(data, math.MaxInt32)
	if err != nil {
		return Document{}, err
	}
	// Agent names are the pooled decoder's: the same few, file after file.
	d := GetDecoder()
	defer d.Put()
	if err := d.decodeNames(&f.agents); err != nil {
		return Document{}, err
	}
	l := oplog.New()
	inserts, err := loadOps(l, &f)
	if err != nil {
		return Document{}, err
	}
	if err := loadGraph(l.Graph, d.table.names, &f); err != nil {
		return Document{}, err
	}
	doc := Document{Log: l}
	if f.flags&FlagCachedDoc != 0 {
		if !utf8.Valid(f.doc) {
			return Document{}, fmt.Errorf("colenc: invalid UTF-8 in doc column")
		}
		if chars, deletes := utf8x.Count(f.doc), f.n-inserts; chars > inserts || chars < inserts-deletes {
			return Document{}, fmt.Errorf("colenc: doc column holds %d characters, the history inserts %d and deletes %d", chars, inserts, deletes)
		}
		doc.Text = rope.NewFromUTF8(f.doc)
	}
	return doc, nil
}

// loadOps fills l's spans and characters from the ops and content columns
// of f and returns how many of the events are inserts.
func loadOps(l *oplog.Log, f *frame) (inserts int, err error) {
	buf := f.content.buf
	if f.flags&FlagCompressed != 0 {
		if buf, err = inflate(buf); err != nil {
			return 0, err
		}
	}
	if !utf8.Valid(buf) {
		return 0, fmt.Errorf("colenc: invalid UTF-8 in content column")
	}
	// A run is three varints and a varint ends at its first byte under
	// 0x80: the column's runs, counted without reading them.
	varints := 0
	for _, b := range f.ops.buf {
		if b < 0x80 {
			varints++
		}
	}
	// Grown, not made: what the allocator rounds the array up by is room
	// the log can append into, and counts as held (oplog.Log.Bytes).
	chars := l.Adopt(append(slices.Grow([]byte(nil), len(buf)), buf...))
	l.Reserve(varints/3, 0)
	var op oplog.Run
	for i := 0; i < f.n; i += op.Len {
		if err := f.ops.opRun(&op, f.n-i, chars-inserts); err != nil {
			return 0, err
		}
		l.PushRun(causal.LV(i), op, inserts)
		if op.Kind == oplog.Insert {
			inserts += op.Len
		}
	}
	if !f.ops.done() {
		return 0, fmt.Errorf("colenc: trailing bytes in ops column")
	}
	if inserts != chars {
		return 0, fmt.Errorf("colenc: trailing bytes in content column")
	}
	return inserts, nil
}

// parentRef names a parent of an event: the event back events before it
// when back > 0, else the event seq of the agent at index agent of the
// name table.
type parentRef struct{ back, agent, seq int }

// stretch is what becomes one entry of the graph: n events from event at
// on by one agent, with consecutive sequence numbers from seq, each after
// the first the sole child of its predecessor and the first the child of
// parents — what its parents entry says, or the event before it.
type stretch struct {
	at, n      int
	agent, seq int // agent indexes the name table
	parents    []parentRef
}

// stretches walks the agents and parents columns of a frame in step,
// cutting the events wherever either does: at the end of an agent run and
// before an event with a parents entry. It reads through readers of its
// own, so that a walk leaves the frame's where they were and a second one
// starts where the first did; it must not be copied once started.
type stretches struct {
	agentsAt, parentsAt reader
	agents              agentsColumn
	parents             parentsColumn
	run                 agentRun // the agent run the walk is in
	i                   int      // the event the next stretch starts at
	refs                []parentRef
}

// start puts w before the first event of f, whose agents column stands
// past its name table of names names.
func (w *stretches) start(f *frame, names int) error {
	*w = stretches{agentsAt: f.agents, parentsAt: f.parents, refs: w.refs}
	var err error
	if w.agents, err = agentRuns(&w.agentsAt, names, f.n); err != nil {
		return err
	}
	w.parents, err = parentEntries(&w.parentsAt, names, f.n)
	return err
}

// next returns the stretch at w.i, which is not the end, and moves past
// it. The stretch's parents are valid until the call after.
func (w *stretches) next() (stretch, error) {
	i := w.i
	if i == w.run.start+w.run.n {
		if w.agents.left == 0 {
			return stretch{}, w.agents.end() // the runs fall short of the frame: an error
		}
		var err error
		if w.run, err = w.agents.next(); err != nil {
			return stretch{}, err
		}
	}
	s := stretch{at: i, agent: w.run.agent, seq: w.run.seq + i - w.run.start}
	w.refs = w.refs[:0]
	if i != w.parents.at {
		w.refs = append(w.refs, parentRef{back: 1})
	} else {
		nPar, err := w.parents.count()
		if err != nil {
			return stretch{}, err
		}
		for p := 0; p < nPar; p++ {
			back, agent, seq, err := w.parents.ref()
			if err != nil {
				return stretch{}, err
			}
			w.refs = append(w.refs, parentRef{back, agent, seq})
		}
		if err := w.parents.next(); err != nil {
			return stretch{}, err
		}
	}
	s.parents = w.refs
	w.i = min(w.run.start+w.run.n, w.parents.at)
	s.n = w.i - i
	return s, nil
}

// end checks both columns once the walk has covered the frame's events.
func (w *stretches) end() error {
	if err := w.agents.end(); err != nil {
		return err
	}
	return w.parents.end()
}

// loadGraph fills the empty graph g from the agents column of f — its name
// table, names, already read — and the parents column. It walks the two
// twice: to count what the graph will hold, then to fill what the count
// has sized.
func loadGraph(g *causal.Graph, names []string, f *frame) error {
	// perAgent lists the agents in the order their events first appear;
	// at is an agent's place in it by index into the file's name table,
	// -1 for a name no event of the frame goes under.
	at := make([]int, len(names))
	for i := range at {
		at[i] = -1
	}
	var perAgent []causal.AgentEntries
	entries, stored := 0, 0
	var w stretches
	if err := w.start(f, len(names)); err != nil {
		return err
	}
	for w.i < f.n {
		s, err := w.next()
		if err != nil {
			return err
		}
		if at[s.agent] < 0 {
			at[s.agent] = len(perAgent)
			perAgent = append(perAgent, causal.AgentEntries{Agent: names[s.agent]})
		}
		perAgent[at[s.agent]].Entries++
		entries++
		stored += len(s.parents)
	}
	if err := w.end(); err != nil {
		return err
	}
	g.Reserve(entries, stored, perAgent)
	// The graph knows an agent by a number it gives the name; num is that
	// number by index into the name table, asked for once, -1 for a name
	// the graph has no events under. A table may hold a name twice: both
	// indexes are the one agent. It takes over at's array, done with.
	num := at
	for i, name := range names {
		num[i] = g.AgentNum(name)
	}

	// An (agent, seq) parent is looked up with its entry; a back-reference,
	// an LV, is searched for.
	var buf [4]causal.Ref
	refs := buf[:0]
	if err := w.start(f, len(names)); err != nil {
		return err
	}
	for w.i < f.n {
		s, err := w.next()
		if err != nil {
			return err
		}
		refs = refs[:0]
		for _, ref := range s.parents {
			if ref.back > 0 {
				r, ok := g.RefOf(causal.LV(s.at - ref.back))
				if !ok {
					return fmt.Errorf("colenc: load: event %d has no event %d before it", s.at, ref.back)
				}
				refs = append(refs, r)
				continue
			}
			r, ok, _ := g.SeqRun(num[ref.agent], ref.seq, 1)
			if !ok {
				return fmt.Errorf("colenc: event %s/%d references unknown parent %s/%d", names[s.agent], s.seq, names[ref.agent], ref.seq)
			}
			refs = append(refs, r)
		}
		if _, err := g.AddNum(names[s.agent], num[s.agent], s.seq, s.n, refs); err != nil {
			return fmt.Errorf("colenc: load: %w", err)
		}
	}
	return nil
}
