package colenc

import (
	"fmt"
	"iter"

	"egwalker/internal/causal"
	"egwalker/internal/oplog"
)

// LogRuns walks the events of spans (ascending, disjoint LV ranges of l)
// as runs: every graph entry within them, cut wherever the operation
// pattern changes. It is how a log leaves for a frame (EncodeRuns) or
// for the per-event API without a stop at one struct per event. A run's
// Parents are valid until the next run is produced; its Content is the
// log's own and must not be modified.
func LogRuns(l *oplog.Log, spans ...causal.Span) iter.Seq[Run] {
	return func(yield func(Run) bool) {
		var ids []causal.RawID
		var parents []ID
		var at oplog.Cursor // entry follows entry: one search for the first run
		more := true
		for _, sp := range spans {
			for w := l.Graph.EntriesIn(sp); more; {
				entry, first, ps, ok := w.NextIDs(ids)
				if !ok {
					break
				}
				ids, parents = ps, parents[:0]
				for _, p := range ps {
					parents = append(parents, ID(p))
				}
				l.EachRunFrom(&at, entry, func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, content []rune) bool {
					r := Run{
						ID:      ID{Agent: first.Agent, Seq: first.Seq + int(lvs.Start-entry.Start)},
						Parents: parents,
						Run:     oplog.Run{Kind: kind, Pos: pos, Dir: dir, Len: lvs.Len(), Content: content},
					}
					if lvs.Start > entry.Start {
						parents = append(parents[:0], ID{Agent: first.Agent, Seq: r.ID.Seq - 1})
						r.Parents = parents
					}
					more = yield(r)
					return more
				})
			}
		}
	}
}

// EventsFromLog exports a log's entire history as a batch in causal
// (LV) order — the inverse of BuildLog, for tools that work at the
// oplog level (the root package exports the same walk as Doc.Events).
func EventsFromLog(l *oplog.Log) []Event {
	return expand(l.Len(), LogRuns(l, causal.Span{End: causal.LV(l.Len())}))
}

// BuildLog rebuilds an operation log from a full-document batch held
// event by event: every parent must reference an earlier event in the
// batch (a whole history in causal order). Grouping the events into runs
// is most of the work, so the log is not sized first: it grows by appends,
// each run one. Malformed input — unknown parents, non-contiguous sequence
// numbers, duplicate events — returns a clean error via the graph's own
// validation. A whole-document frame goes straight from its columns to a
// log through LoadDocument instead.
func BuildLog(evs []Event) (*oplog.Log, error) {
	return buildLog(oplog.New(), Runs(evs))
}

// buildLog is BuildLog into the empty log l for a batch held as runs. (It
// takes the log so that it stays small enough to inline into BuildLog,
// where the loop over Runs then needs no call per run.)
func buildLog(l *oplog.Log, runs iter.Seq[Run]) (*oplog.Log, error) {
	var ps []causal.LV
	for r := range runs {
		ps = ps[:0]
		for _, p := range r.Parents {
			lv, ok := l.Graph.LVOf(causal.RawID(p))
			if !ok {
				return nil, fmt.Errorf("colenc: event %s/%d references unknown parent %s/%d",
					r.ID.Agent, r.ID.Seq, p.Agent, p.Seq)
			}
			ps = append(ps, lv)
		}
		if _, err := l.AddRun(r.ID.Agent, r.ID.Seq, ps, r.Run); err != nil {
			return nil, fmt.Errorf("colenc: rebuild: %w", err)
		}
	}
	return l, nil
}
