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
		g := l.Graph
		var parents []ID
		var at oplog.Cursor // entry follows entry: one search for the first run
		more := true
		each := func(entry causal.Span, first causal.RawID, ps []causal.RawID) bool {
			agent, seqStart := first.Agent, first.Seq
			parents = parents[:0]
			for _, p := range ps {
				parents = append(parents, ID(p))
			}
			l.EachRunFrom(&at, entry, func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, content []rune) bool {
				r := Run{
					ID:      ID{Agent: agent, Seq: seqStart + int(lvs.Start-entry.Start)},
					Parents: parents,
					Run:     oplog.Run{Kind: kind, Pos: pos, Dir: dir, Len: lvs.Len(), Content: content},
				}
				if lvs.Start > entry.Start {
					parents = append(parents[:0], ID{Agent: agent, Seq: r.ID.Seq - 1})
					r.Parents = parents
				}
				more = yield(r)
				return more
			})
			return more
		}
		for _, sp := range spans {
			if g.EachEntryIDsIn(sp, each); !more {
				return
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
// event by event; see BuildLogRuns. Grouping the events into runs is most
// of the work, so the log is not sized first: it grows by appends.
func BuildLog(evs []Event) (*oplog.Log, error) {
	return buildLog(oplog.New(), Runs(evs))
}

// BuildLogRuns rebuilds an operation log from a full-document batch:
// every parent must reference an earlier event in the batch (a whole
// history in causal order), as DecodeRuns produces for files written by
// the root package's Save. Runs is walked twice: once to size the log
// (reserve), once to fill it, each run one append. Malformed input —
// unknown parents, non-contiguous sequence numbers, duplicate events —
// returns a clean error via the graph's own validation.
func BuildLogRuns(runs iter.Seq[Run]) (*oplog.Log, error) {
	l := oplog.New()
	reserve(l, runs)
	return buildLog(l, runs)
}

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

// reserve sizes the empty log l for the runs it is about to be built
// from, so that building it allocates each of its arrays once and leaves
// no slack in them. It counts what the runs will store the way the log
// and the graph will decide it — a run that continues the operation
// pattern of the one before extends its span, a run whose sole parent is
// the event before it by the same agent extends its entry — from the runs
// alone: every count is bounded by the number of runs and characters that
// are already in memory. (A run with several parents that reduce to that
// one is counted as an entry and stored as none: room for one entry too
// many.)
func reserve(l *oplog.Log, runs iter.Seq[Run]) {
	var spans, chars, entries, parents int
	var perAgent []causal.AgentEntries // in first-seen order, as the graph will number them
	agentIdx := make(map[string]int)
	var head oplog.Run // the span the log would be extending
	var last ID        // the event before r
	for r := range runs {
		took := 0
		if spans > 0 {
			took = head.Extend(r.Run)
		}
		if took < r.Len {
			spans++
			head = r.Run.From(took)
		}
		if r.Kind == oplog.Insert {
			chars += r.Len
		}
		if entries == 0 || len(r.Parents) != 1 || r.Parents[0] != last || r.ID != (ID{Agent: last.Agent, Seq: last.Seq + 1}) {
			entries++
			parents += len(r.Parents)
			i, ok := agentIdx[r.ID.Agent]
			if !ok {
				i, agentIdx[r.ID.Agent] = len(perAgent), len(perAgent)
				perAgent = append(perAgent, causal.AgentEntries{Agent: r.ID.Agent})
			}
			perAgent[i].Entries++
		}
		last = r.last()
	}
	l.Reserve(spans, chars)
	l.Graph.Reserve(entries, parents, perAgent)
}
