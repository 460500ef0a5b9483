package store

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"egwalker"
	"egwalker/internal/causal"
	"egwalker/internal/colenc"
	"egwalker/internal/oplog"
)

// idSet tracks which event IDs a journal-only DocStore holds, as
// per-agent sorted runs of sequence numbers. Editing histories are
// run-shaped (one agent emits seq 0,1,2,…), so the set stays tiny —
// typically one run per agent — no matter how many events the journal
// covers. This is what lets the store validate an uploaded batch's
// causal dependencies without materialising the document.
type idSet struct {
	runs map[string][]seqRun // per agent, sorted by start, non-overlapping
}

type seqRun struct{ start, end int } // [start, end)

func newIDSet() *idSet { return &idSet{runs: make(map[string][]seqRun)} }

// addRun inserts [seq, seq+n) for agent, merging with adjacent or
// overlapping runs, in place: only a run that lands between two others
// it touches neither of can grow the agent's slice.
func (s *idSet) addRun(agent string, seq, n int) {
	if n <= 0 {
		return
	}
	runs := s.runs[agent]
	nr := seqRun{start: seq, end: seq + n}
	// The agent typing on: the run extends (or sits inside) the last one.
	if k := len(runs) - 1; k >= 0 && runs[k].start <= nr.start && nr.start <= runs[k].end {
		if nr.end > runs[k].end {
			runs[k].end = nr.end
		}
		return
	}
	// First run starting after the new run's start.
	i := sort.Search(len(runs), func(i int) bool { return runs[i].start > nr.start })
	// Merge backward into a predecessor that reaches nr.start.
	if i > 0 && runs[i-1].end >= nr.start {
		i--
		nr.start = runs[i].start
		nr.end = max(nr.end, runs[i].end)
	}
	// Swallow successors the new run reaches.
	j := i
	for j < len(runs) && runs[j].start <= nr.end {
		nr.end = max(nr.end, runs[j].end)
		j++
	}
	if i == j {
		s.runs[agent] = slices.Insert(runs, i, nr)
		return
	}
	runs[i] = nr
	s.runs[agent] = slices.Delete(runs, i+1, j)
}

// countNew reports how many IDs in [seq, seq+n) for agent are NOT yet
// in the set — the fresh-event count of a possibly-duplicated run.
func (s *idSet) countNew(agent string, seq, n int) int {
	if n <= 0 {
		return 0
	}
	covered := 0
	end := seq + n
	runs := s.runs[agent]
	i := sort.Search(len(runs), func(i int) bool { return runs[i].end > seq })
	for ; i < len(runs) && runs[i].start < end; i++ {
		lo, hi := runs[i].start, runs[i].end
		if lo < seq {
			lo = seq
		}
		if hi > end {
			hi = end
		}
		covered += hi - lo
	}
	return n - covered
}

// has reports whether the set contains agent's event seq.
func (s *idSet) has(agent string, seq int) bool {
	runs := s.runs[agent]
	i := sort.Search(len(runs), func(i int) bool { return runs[i].end > seq })
	return i < len(runs) && runs[i].start <= seq
}

// addRuns adds every event of a decoded frame.
func (s *idSet) addRuns(runs []colenc.Run) {
	for i := range runs {
		s.addRun(runs[i].ID.Agent, runs[i].ID.Seq, runs[i].Len)
	}
}

// addEvents adds decoded events (the legacy-payload path).
func (s *idSet) addEvents(events []egwalker.Event) {
	for _, ev := range events {
		s.addRun(ev.ID.Agent, ev.ID.Seq, 1)
	}
}

// newInOrder returns the events of a batch that held does not report, in
// batch order and each once (events itself when that is all of them), and
// whether each comes after its parents: held, or earlier in the batch, the
// order admit asks of a journal-only upload.
func newInOrder(events []egwalker.Event, held func(egwalker.EventID) bool) (news []egwalker.Event, ordered bool) {
	var seen frameSeen
	news, ordered = events, true
	picked := false // news is a copy, past the first event it leaves out
	for i, ev := range events {
		if held(ev.ID) || seen.overlaps(ev.ID.Agent, ev.ID.Seq, 1) {
			if !picked {
				news, picked = events[:i:i], true // the first append copies
			}
			continue
		}
		for _, p := range ev.Parents {
			ordered = ordered && (held(p) || seen.overlaps(p.Agent, p.Seq, 1))
		}
		seen.add(ev.ID.Agent, ev.ID.Seq, 1)
		if picked {
			news = append(news, ev)
		}
	}
	return news, ordered
}

// errCausalGap reports a batch whose parents the set does not hold;
// IngestBatch responds by materializing, since only Doc.Apply can buffer
// a causal gap.
var errCausalGap = errors.New("store: batch references events the journal does not hold")

// errRepeatedID is admit declining a frame that names an event twice: no
// encoder produces one, so the per-event check decides instead.
var errRepeatedID = errors.New("store: frame repeats an event ID")

// admitPayload is the one admission check of the store, behind both the
// open-time scan of the WAL and a live IngestBatch. A compact payload is
// decoded into dec — validated in full: every column, every limit — and
// checked a run at a time (idSet.admit); its runs come back, valid until
// dec is used again, for the caller to add once the payload is safely
// stored. A batch with no compact payload, and the frame no encoder
// produces that names an event twice, is checked event by event
// (idSet.admitEvents) and comes back with runs nil. Nothing is added to
// known either way.
func (known *idSet) admitPayload(b *batch, dec *colenc.Decoder) (fresh int, runs []colenc.Run, err error) {
	if colenc.Sniff(b.raw) {
		d, err := dec.DecodeRuns(b.raw, colenc.MaxBatchEvents)
		if err != nil {
			return 0, nil, err
		}
		b.n = d.NumEvents
		if fresh, err = known.admit(d.Runs); !errors.Is(err, errRepeatedID) {
			return fresh, d.Runs, err
		}
	}
	events, err := b.Events()
	if err != nil {
		return 0, nil, err
	}
	fresh, err = known.admitEvents(events)
	return fresh, nil, err
}

// admit is the admission check for a frame of events, a run at a time:
// every event must be held already or have all its parents held or
// earlier in the frame. It returns how many of the events are new to the
// set, and changes nothing — the caller adds the runs once the frame is
// safely appended (addRuns). Within a run each event's parent is the one
// before it, so only a run's first event has parents to look up; the
// verdict and the count are those of admitEvents on the same events.
func (s *idSet) admit(runs []colenc.Run) (fresh int, err error) {
	var seen frameSeen
	for i := range runs {
		r := &runs[i]
		agent, seq := r.ID.Agent, r.ID.Seq
		n := s.countNew(agent, seq, r.Len)
		if n == 0 {
			continue // held already, every event of it
		}
		if seen.overlaps(agent, seq, r.Len) {
			return 0, errRepeatedID
		}
		if !s.has(agent, seq) {
			for _, p := range r.Parents {
				if !s.has(p.Agent, p.Seq) && !seen.overlaps(p.Agent, p.Seq, 1) {
					return 0, fmt.Errorf("%w: %s/%d needs %s/%d", errCausalGap, agent, seq, p.Agent, p.Seq)
				}
			}
		}
		fresh += n
		seen.add(agent, seq, r.Len)
	}
	return fresh, nil
}

// frameSeen is the runs of the frame admit (or admitEvents, or
// newInOrder) is part-way through that brought new events. A frame is a run or two, so they sit
// in a fixed array; a frame of more spills into a set.
type frameSeen struct {
	n     int
	first [8]colenc.IDRun
	rest  *idSet
}

func (f *frameSeen) add(agent string, seq, n int) {
	if k := f.n - 1; k >= 0 && f.first[k].Agent == agent && f.first[k].Seq+f.first[k].Len == seq {
		f.first[k].Len += n // the run before goes on
		return
	}
	if f.n < len(f.first) {
		f.first[f.n] = colenc.IDRun{Agent: agent, Seq: seq, Len: n}
		f.n++
		return
	}
	if f.rest == nil {
		f.rest = newIDSet()
	}
	f.rest.addRun(agent, seq, n)
}

// overlaps reports whether any of agent's events [seq, seq+n) is in f.
func (f *frameSeen) overlaps(agent string, seq, n int) bool {
	for _, r := range f.first[:f.n] {
		if r.Agent == agent && seq < r.Seq+r.Len && r.Seq < seq+n {
			return true
		}
	}
	return f.rest != nil && f.rest.countNew(agent, seq, n) < n
}

// admitEvents is the admission check an event at a time: the form for
// batches that arrive decoded or in the legacy encoding, and the
// reference admit is held to. It also refuses an event whose seq or
// position passes what a document holds (causal.MaxSeq, oplog.MaxPos),
// which no snapshot could save: a compact frame's decoder has refused
// those already. Like admit it changes nothing.
func (s *idSet) admitEvents(events []egwalker.Event) (fresh int, err error) {
	var seen frameSeen
	for _, ev := range events {
		if err := causal.CheckSeqs(ev.ID.Seq, 1); err != nil {
			return 0, fmt.Errorf("store: event %v: %w", ev.ID, err)
		}
		if err := oplog.Unit(ev.Insert, ev.Pos).CheckPos(); err != nil {
			return 0, fmt.Errorf("store: event %v: %w", ev.ID, err)
		}
		if s.has(ev.ID.Agent, ev.ID.Seq) || seen.overlaps(ev.ID.Agent, ev.ID.Seq, 1) {
			continue
		}
		for _, p := range ev.Parents {
			if !s.has(p.Agent, p.Seq) && !seen.overlaps(p.Agent, p.Seq, 1) {
				return 0, fmt.Errorf("%w: %s/%d needs %s/%d", errCausalGap, ev.ID.Agent, ev.ID.Seq, p.Agent, p.Seq)
			}
		}
		fresh++
		seen.add(ev.ID.Agent, ev.ID.Seq, 1)
	}
	return fresh, nil
}

// summary exports the set as a version summary — the run structures
// are identical, so this is a per-agent copy, O(runs).
func (s *idSet) summary() egwalker.VersionSummary {
	sum := make(egwalker.VersionSummary, len(s.runs))
	for agent, runs := range s.runs {
		ranges := make([]egwalker.SeqRange, len(runs))
		for i, r := range runs {
			ranges[i] = egwalker.SeqRange{Start: r.start, End: r.end}
		}
		sum[agent] = ranges
	}
	return sum
}

// coveredBy reports whether every ID in the set is covered by the
// summary — when true, a diff against the summary is empty.
func (s *idSet) coveredBy(sum egwalker.VersionSummary) bool {
	for agent, runs := range s.runs {
		ranges := sum[agent]
		for _, run := range runs {
			i := sort.Search(len(ranges), func(i int) bool { return ranges[i].End > run.start })
			if i == len(ranges) || ranges[i].Start > run.start || ranges[i].End < run.end {
				return false
			}
		}
	}
	return true
}

// numEvents counts the IDs in the set (the journal's event total).
func (s *idSet) numEvents() int {
	n := 0
	for _, runs := range s.runs {
		for _, r := range runs {
			n += r.end - r.start
		}
	}
	return n
}
