package colenc

import (
	"encoding/binary"
	"fmt"

	"egwalker/internal/causal"
	"egwalker/internal/oplog"
	"egwalker/internal/rope"
	"egwalker/internal/utf8x"
)

// SaveDocument writes the whole history of l as the frame LoadDocument
// reads, with text — the document at l's frontier — as its doc column
// unless text is nil. Its bytes and its refusals are those of EncodeRuns
// (with a text, EncodeRunsDoc) over LogRuns of the whole log, and it is
// the same encoder; but in a whole-document frame event i is LV i, so the
// columns come straight off the log's arrays (docs/FORMAT.md,
// "Whole-document files"), with no run built and nothing looked up: one
// walk of the graph's entries for the agents and parents columns, the name
// table through a slice indexed by agent number and a parent's (agent,
// seq) read off its entry; one of the log's spans, each an ops run, for
// the ops column, the content column being the log's UTF-8 as it is. The
// frame is allocated once, at its exact size, and the characters go from
// the log's arena and the text from the rope's leaves straight into it.
//
// dropped lists, ascending and disjoint, insert events whose characters
// the file leaves out; if it lists any, the frame is pruned (FlagPruned)
// and its content column is the stretches of kept and dropped characters
// and the kept characters' UTF-8.
func SaveDocument(l *oplog.Log, text *rope.Rope, dropped []causal.Span, opts Options) ([]byte, error) {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.reset()
	g := l.Graph
	names := g.Agents()
	if err := checkSeqs(g, names); err != nil {
		return nil, err
	}
	table := make([]int, len(names)) // by agent number, its index in the name table
	for i := range table {
		table[i] = -1
	}
	var buf [4]causal.Ref
	for it := g.EntriesIn(causal.Span{End: causal.LV(g.Len())}); ; {
		sp, last, parents, ok := it.NextRefs(buf[:0])
		if !ok {
			break
		}
		aid, seq := g.NumOf(last)
		if table[aid] < 0 {
			if len(names[aid]) > maxAgentName {
				return nil, fmt.Errorf("colenc: agent name too long (%d bytes)", len(names[aid]))
			}
			table[aid], e.names = len(e.names), append(e.names, names[aid])
		}
		e.n = int(sp.Start)
		if e.n == 0 || len(parents) != 1 || parents[0].LV != sp.Start-1 {
			if len(parents) > maxParents {
				return nil, fmt.Errorf("colenc: event %s has %d parents", g.IDOf(sp.Start), len(parents))
			}
			e.openParents(len(parents))
			for _, p := range parents {
				if back := e.n - int(p.LV); back <= maxBackrefScan {
					e.parents = binary.AppendUvarint(e.parents, uint64(back)<<1)
				} else {
					pa, pseq := g.NumOf(p)
					e.parents = binary.AppendUvarint(binary.AppendUvarint(e.parents, uint64(table[pa])<<1|1), uint64(pseq))
				}
			}
		}
		e.pushAgent(table[aid], seq-sp.Len()+1, sp.Len())
	}
	var err error
	l.EachRun(causal.Span{End: causal.LV(l.Len())}, func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, text []byte) bool {
		r := oplog.Run{Kind: kind, Pos: pos, Dir: dir, Len: lvs.Len()}
		if k, ok := negativeAt(&r); ok {
			err = fmt.Errorf("colenc: negative position in event %s", g.IDOf(lvs.Start+causal.LV(k)))
		} else if at, c, ok := l.Invalid(lvs.Start); ok && at < lvs.End {
			err = fmt.Errorf("colenc: invalid rune %#x in event %s", c, g.IDOf(at))
		}
		e.op = r // a span is a run the encoder would cut: PushRun cuts by Extend too
		e.flushOp()
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	e.n = l.Len()
	content := l.Content()
	if len(dropped) > 0 {
		e.pruned, content = true, e.pruneContent(l, dropped)
	}
	if text == nil {
		return e.frame(opts, content, -1, nil)
	}
	return e.frame(opts, content, text.UTF8Len(), text.AppendUTF8)
}

// pruneContent returns the pruned content column of l less the characters
// of dropped: the lengths of the stretches of kept and dropped characters
// in LV order, alternating and starting with a kept one, which may be
// empty, in e's content buffer, and after them the kept characters' UTF-8,
// gathered in its kept buffer.
func (e *encoder) pruneContent(l *oplog.Log, dropped []causal.Span) []byte {
	keep, n := true, 0 // the stretch so far
	l.EachRun(causal.Span{End: causal.LV(l.Len())}, func(lvs causal.Span, kind oplog.Kind, _ int, _ int8, text []byte) bool {
		for at := lvs.Start; kind == oplog.Insert && at < lvs.End; {
			for len(dropped) > 0 && dropped[0].End <= at {
				dropped = dropped[1:]
			}
			kept, end := true, lvs.End // the part of the run up to the next edge of dropped
			if len(dropped) > 0 && dropped[0].Start <= at {
				kept, end = false, min(end, dropped[0].End)
			} else if len(dropped) > 0 {
				end = min(end, dropped[0].Start)
			}
			if kept != keep {
				e.content = binary.AppendUvarint(e.content, uint64(n))
				keep, n = kept, 0
			}
			b := utf8x.Skip(text, int(end-at))
			if kept {
				e.kept = append(e.kept, text[:b]...)
			}
			n, text, at = n+int(end-at), text[b:], end
		}
		return true
	})
	if n > 0 { // some character is inserted
		e.content = binary.AppendUvarint(e.content, uint64(n))
	}
	e.content = append(e.content, e.kept...)
	return e.content
}

// checkSeqs returns an error if an agent of g, whose names are names, has
// a seq past causal.MaxSeq. None has, the graph having refused them, but
// no file may hold one: the check is an agent's, not an entry's. (Nor may
// a file hold a position past oplog.MaxPos, which the log refuses too.)
func checkSeqs(g *causal.Graph, names []string) error {
	for _, name := range names {
		if err := causal.CheckSeqs(0, g.SeqEnd(name)); err != nil {
			return fmt.Errorf("colenc: agent %s: %w", name, err)
		}
	}
	return nil
}
