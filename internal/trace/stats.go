package trace

import (
	"fmt"

	"egwalker/internal/causal"
	"egwalker/internal/core"
	"egwalker/internal/oplog"
)

// Stats summarises a trace like Table 1 of the paper.
type Stats struct {
	Name   string
	Events int
	// GraphRuns is the number of maximal linear runs in the event graph
	// (Table 1 "graph runs").
	GraphRuns int
	Authors   int
	// AvgConcurrency is the mean, over events, of the number of other
	// branches concurrent with the event (estimated as the running
	// frontier size minus one, averaged in storage order).
	AvgConcurrency float64
	// InsertedChars is the total number of characters ever inserted.
	InsertedChars int
	// RemainPct is the percentage of inserted characters remaining in
	// the final document.
	RemainPct float64
	// FinalBytes is the size of the final document in bytes.
	FinalBytes int
	// CriticalPct is the percentage of events at critical versions
	// (100% for purely sequential traces, ~0% for heavily concurrent
	// ones) — the property that drives Eg-walker's fast path.
	CriticalPct float64
}

// Measure computes trace statistics (replays the log once).
func Measure(name string, l *oplog.Log) (Stats, error) {
	st := Stats{Name: name, Events: l.Len()}
	if l.Len() == 0 {
		return st, nil
	}
	st.Authors = len(l.Graph.Agents())

	inserted := 0
	l.EachRun(causal.Span{Start: 0, End: causal.LV(l.Len())},
		func(lvs causal.Span, kind oplog.Kind, pos int, dir int8, content []rune) bool {
			if kind == oplog.Insert {
				inserted += lvs.Len()
			}
			return true
		})
	st.InsertedChars = inserted

	// Graph runs and running frontier size.
	runs := 0
	inFrontier := make(map[causal.LV]bool)
	size := 0
	var sumConc float64
	var parents []causal.Ref
	for w := l.Graph.EntriesIn(causal.Span{Start: 0, End: causal.LV(l.Len())}); ; runs++ {
		span, last, ps, ok := w.NextRefs(parents)
		if !ok {
			break
		}
		parents = ps
		removed := 0
		for _, p := range ps {
			if inFrontier[p.LV] {
				delete(inFrontier, p.LV)
				removed++
			}
		}
		size += 1 - removed
		inFrontier[last.LV] = true
		sumConc += float64(size-1) * float64(span.Len())
	}
	st.GraphRuns = runs
	st.AvgConcurrency = sumConc / float64(l.Len())

	crit := 0
	for _, ok := range l.Graph.CriticalBoundaries() {
		if ok {
			crit++
		}
	}
	st.CriticalPct = 100 * float64(crit) / float64(l.Len())

	text, err := core.ReplayText(l)
	if err != nil {
		return st, err
	}
	st.FinalBytes = len(text)
	if inserted > 0 {
		st.RemainPct = 100 * float64(len([]rune(text))) / float64(inserted)
	}
	return st, nil
}

// Row formats the stats as a Table 1 row.
func (st Stats) Row() string {
	return fmt.Sprintf("%-4s %9d %10d %8d %8.2f %10.1f%% %9.1f kB %8.1f%%",
		st.Name, st.Events, st.GraphRuns, st.Authors, st.AvgConcurrency,
		st.RemainPct, float64(st.FinalBytes)/1000, st.CriticalPct)
}

// Header returns the column header matching Row.
func Header() string {
	return fmt.Sprintf("%-4s %9s %10s %8s %8s %11s %12s %9s",
		"name", "events", "runs", "authors", "avgconc", "remaining", "final size", "critical")
}
