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
	// Pruned lists, ascending, the insert events whose characters a
	// pruned frame left out: the log holds U+FFFD for each.
	Pruned []causal.Span
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
// graph from a count of the agents and parents columns that reads a parent
// reference only as far as its length. Each column is then decoded once,
// in one checked walk: an op span takes its byte offset from a running
// cursor through the characters, and a back-referenced parent is found
// among the graph's newest entries, not searched for. Every count is of
// bytes that are there, none is the header's claim, and a file that Save
// wrote leaves no slack in them. The checks are DecodeRuns' — the same
// column readers make them — and the graph's own (causal.Graph.AddNum):
// what DecodeRuns and a run-by-run rebuild accept loads, and the same log
// comes of it; the rest is an error. A cached text must be valid UTF-8 and
// as long as some outcome of the history: no longer than what it inserts,
// no shorter than that less what it deletes (two concurrent deletes may be
// of one character). Of a pruned frame, the arena holds a placeholder for
// each dropped character and Document.Pruned says which events those are;
// LoadDocument is the only decoder that reads one.
func LoadDocument(data []byte) (Document, error) {
	f, err := splitFrame(data, docFlags, math.MaxInt32)
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
	inserts, pruned, err := loadOps(l, &f)
	if err != nil {
		return Document{}, err
	}
	if err := loadGraph(l.Graph, d.table.names, &f); err != nil {
		return Document{}, err
	}
	doc := Document{Log: l, Pruned: pruned}
	if f.flags&FlagCachedDoc != 0 {
		if !utf8.Valid(f.doc) {
			return Document{}, fmt.Errorf("colenc: invalid UTF-8 in doc column")
		}
		// The rope counts the characters as it cuts its leaves.
		text := rope.NewFromUTF8(f.doc)
		if chars, deletes := text.Len(), f.n-inserts; chars > inserts || chars < inserts-deletes {
			return Document{}, fmt.Errorf("colenc: doc column holds %d characters, the history inserts %d and deletes %d", chars, inserts, deletes)
		}
		doc.Text = text
	}
	return doc, nil
}

// loadOps fills l's spans and characters from the ops and content columns
// of f and returns how many of the events are inserts and, for a pruned
// frame, the inserts whose characters it left out.
func loadOps(l *oplog.Log, f *frame) (inserts int, pruned []causal.Span, err error) {
	buf := f.content.buf
	if f.flags&FlagCompressed != 0 {
		if buf, err = inflate(buf); err != nil {
			return 0, nil, err
		}
	}
	var arena []byte
	if f.flags&FlagPruned != 0 {
		if arena, pruned, err = unprune(buf, f); err != nil {
			return 0, nil, err
		}
	} else if !utf8.Valid(buf) {
		return 0, nil, fmt.Errorf("colenc: invalid UTF-8 in content column")
	} else {
		// Grown, not made: what the allocator rounds the array up by is
		// room the log can append into, and counts as held
		// (oplog.Log.Bytes).
		arena = append(slices.Grow([]byte(nil), len(buf)), buf...)
	}
	// A run is three varints and a varint ends at its first byte under
	// 0x80: the column's runs, counted without reading them.
	varints := 0
	for _, b := range f.ops.buf {
		if b < 0x80 {
			varints++
		}
	}
	chars := l.Adopt(arena)
	l.Reserve(varints/3, 0)
	// The runs' characters follow one another through the arena: at is
	// the byte where the next insert's characters start — character
	// inserts, the same number in an ASCII arena, else found by skipping
	// the last run's characters.
	ascii, at := len(arena) == chars, 0
	var op oplog.Run
	for i := 0; i < f.n; i += op.Len {
		if err := f.ops.opRun(&op, f.n-i, chars-inserts); err != nil {
			return 0, nil, err
		}
		l.PushRun(causal.LV(i), op, inserts, at)
		if op.Kind == oplog.Insert {
			inserts += op.Len
			if ascii {
				at = inserts
			} else {
				at += utf8x.Skip(arena[at:], op.Len)
			}
		}
	}
	if !f.ops.done() {
		return 0, nil, fmt.Errorf("colenc: trailing bytes in ops column")
	}
	if inserts != chars {
		return 0, nil, fmt.Errorf("colenc: trailing bytes in content column")
	}
	return inserts, pruned, nil
}

// placeholder is what the log holds for a character a pruned frame left
// out.
const placeholder = "\uFFFD"

// unprune reads the pruned content column buf of f (docs/FORMAT.md, "Pruned
// documents") and returns the log's arena — the kept characters, and a
// placeholder for each dropped one — and the dropped events. The stretch
// lengths are read against a walk of the ops column's insert runs: they
// must end with its inserts, none but the first be empty, and the kept
// characters be valid UTF-8, as many as the kept stretches hold.
func unprune(buf []byte, f *frame) ([]byte, []causal.Span, error) {
	r, ops := reader{buf: buf}, f.ops // a copy: the frame's reader stays where it is
	var pruned []causal.Span
	read, left, kept, chars := 0, 0, 0, 0 // stretches read, what is left of the last, characters kept and all
	var op oplog.Run
	for i := 0; i < f.n; i += op.Len {
		if err := ops.opRun(&op, f.n-i, math.MaxInt); err != nil {
			return nil, nil, err
		}
		for at := i; op.Kind == oplog.Insert && at < i+op.Len; {
			for left == 0 {
				n, err := r.count(f.n, "pruned stretch length")
				if err != nil {
					return nil, nil, err
				}
				if n == 0 && read > 0 {
					return nil, nil, fmt.Errorf("colenc: empty pruned stretch")
				}
				read, left, chars = read+1, n, chars+n
			}
			k := min(left, i+op.Len-at)
			if read%2 == 1 { // the first stretch is kept, the second dropped, …
				kept += k
			} else if p := len(pruned); p > 0 && pruned[p-1].End == causal.LV(at) {
				pruned[p-1].End += causal.LV(k)
			} else {
				pruned = append(pruned, causal.Span{Start: causal.LV(at), End: causal.LV(at + k)})
			}
			left, at = left-k, at+k
		}
	}
	if left > 0 {
		return nil, nil, fmt.Errorf("colenc: pruned stretches overrun the inserts by %d", left)
	}
	text := buf[r.off:]
	if !utf8.Valid(text) {
		return nil, nil, fmt.Errorf("colenc: invalid UTF-8 in content column")
	}
	if c := utf8x.Count(text); c != kept {
		return nil, nil, fmt.Errorf("colenc: pruned content column holds %d kept characters, its stretches %d", c, kept)
	}
	// The stretches again, now that they are known to be sound.
	arena := slices.Grow([]byte(nil), len(text)+len(placeholder)*(chars-kept))
	for s, keep := (reader{buf: buf[:r.off]}), true; !s.done(); keep = !keep {
		n, _ := s.count(f.n, "")
		if keep {
			b := utf8x.Skip(text, n)
			arena, text = append(arena, text[:b]...), text[b:]
			continue
		}
		for range n {
			arena = append(arena, placeholder...)
		}
	}
	return arena, pruned, nil
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
// own, so that it starts where graphSize did; it must not be copied once
// started.
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

// graphSize walks the agents and parents columns of f, whose name table
// is names, as stretches does, and returns what the graph will hold: its
// entries, the parents they store and, in perAgent, each agent's entries,
// the agents in the order their events first appear, with at each name's
// place in it (-1 for a name no event goes under). Of a parent reference
// it reads only the length — the first varint's low bit says whether a
// second follows — and leaves the checks to the walk that fills the
// graph: every count is of bytes that are there.
func graphSize(f *frame, names []string, at []int) (entries, stored int, perAgent []causal.AgentEntries, err error) {
	agentsAt, parentsAt := f.agents, f.parents // copies: the frame's readers stay where they are
	agents, err := agentRuns(&agentsAt, len(names), f.n)
	if err != nil {
		return 0, 0, nil, err
	}
	parents, err := parentEntries(&parentsAt, len(names), f.n)
	if err != nil {
		return 0, 0, nil, err
	}
	for i := 0; i < f.n; {
		if agents.left == 0 {
			return 0, 0, nil, agents.end() // the runs fall short of the frame: an error
		}
		run, err := agents.next()
		if err != nil {
			return 0, 0, nil, err
		}
		// A stretch starts at the run and at each parents entry inside it.
		k, end := 0, run.start+run.n
		for ; i < end; k++ {
			if i != parents.at {
				stored++
			} else {
				nPar, err := parents.count()
				if err != nil {
					return 0, 0, nil, err
				}
				for range nPar {
					if err := parents.skip(); err != nil {
						return 0, 0, nil, err
					}
				}
				if err := parents.next(); err != nil {
					return 0, 0, nil, err
				}
				stored += nPar
			}
			i = min(end, parents.at)
		}
		if at[run.agent] < 0 {
			at[run.agent] = len(perAgent)
			perAgent = append(perAgent, causal.AgentEntries{Agent: names[run.agent]})
		}
		perAgent[at[run.agent]].Entries += k
		entries += k
	}
	if err := agents.end(); err != nil {
		return 0, 0, nil, err
	}
	return entries, stored, perAgent, parents.end()
}

// loadGraph fills the empty graph g from the agents column of f — its name
// table, names, already read — and the parents column. It sizes the graph
// from a count of the two (graphSize), then fills it in one checked walk.
func loadGraph(g *causal.Graph, names []string, f *frame) error {
	at := make([]int, len(names))
	for i := range at {
		at[i] = -1
	}
	entries, stored, perAgent, err := graphSize(f, names, at)
	if err != nil {
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
	// an LV a few events back, is found among the newest entries.
	var buf [4]causal.Ref
	refs := buf[:0]
	var w stretches
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
	return nil // the count has checked the columns' ends
}
