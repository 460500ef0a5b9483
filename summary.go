package egwalker

import (
	"fmt"
	"sort"

	"egwalker/internal/causal"
)

// SeqRange is a half-open range [Start, End) of one agent's sequence
// numbers.
type SeqRange struct {
	Start, End int
}

// VersionSummary describes the complete set of events a replica holds,
// as per-agent run-length ranges of sequence numbers: for each agent,
// a sorted list of disjoint, non-abutting [Start, End) seq ranges.
// Agents emit contiguous seqs, so a replica holding an agent's full
// history stores exactly one range per agent no matter how long the
// history is — a summary costs O(distinct agent runs), where a
// frontier version costs O(heads) but loses everything below the
// heads.
//
// That lost information is the point: a frontier can only anchor a
// diff on a peer that knows every head, so a serving side that is
// missing even one head must fall back to a lossy known-subset and
// re-send an arbitrarily large prefix the client already has. Two
// summaries instead intersect exactly (IntersectSummary), and the
// set each replica holds is causally closed, so the intersection is
// causally closed too — EventsSinceSummary anchored on it is an
// exact diff in both directions, regardless of which side is ahead.
type VersionSummary map[string][]SeqRange

// Contains reports whether the summary covers id.
func (s VersionSummary) Contains(id EventID) bool {
	ranges := s[id.Agent]
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].End > id.Seq })
	return i < len(ranges) && ranges[i].Start <= id.Seq
}

// NumEvents counts the events the summary covers.
func (s VersionSummary) NumEvents() int {
	n := 0
	for _, ranges := range s {
		for _, r := range ranges {
			n += r.End - r.Start
		}
	}
	return n
}

// NumRanges counts the seq ranges across all agents — the size that
// matters on the wire, independent of how many events the ranges
// cover.
func (s VersionSummary) NumRanges() int {
	n := 0
	for _, ranges := range s {
		n += len(ranges)
	}
	return n
}

// Validate checks structural invariants: for every agent at least one
// range, each with 0 <= Start < End, sorted ascending and separated by
// at least one absent seq (abutting ranges must be merged). Summaries
// built by Summary or decoded by netsync always validate; hand-built
// ones should be checked before use.
func (s VersionSummary) Validate() error {
	for agent, ranges := range s {
		if len(ranges) == 0 {
			return fmt.Errorf("egwalker: summary agent %q has no ranges", agent)
		}
		prevEnd := -1
		for _, r := range ranges {
			if r.Start < 0 || r.End <= r.Start {
				return fmt.Errorf("egwalker: summary agent %q has bad range [%d,%d)", agent, r.Start, r.End)
			}
			if r.Start <= prevEnd {
				return fmt.Errorf("egwalker: summary agent %q ranges overlap or abut at %d", agent, r.Start)
			}
			prevEnd = r.End
		}
	}
	return nil
}

// Summary returns a run-length summary of every event in the
// document's history. It reads the causal graph's per-agent index —
// maintained incrementally as events are added — so the cost is
// O(graph spans), not O(events).
func (d *Doc) Summary() VersionSummary {
	s := make(VersionSummary)
	d.log.Graph.EachAgentRun(func(agent string, seqStart, seqEnd int) bool {
		s[agent] = append(s[agent], SeqRange{Start: seqStart, End: seqEnd})
		return true
	})
	return s
}

// IntersectSummary returns the exact intersection of two summaries:
// the events covered by both. Because each input describes a causally
// closed event set (everything a replica holds), the intersection is
// causally closed as well, which is what lets a diff anchor on it.
func IntersectSummary(a, b VersionSummary) VersionSummary {
	out := make(VersionSummary)
	for agent, ar := range a {
		br, ok := b[agent]
		if !ok {
			continue
		}
		var merged []SeqRange
		i, j := 0, 0
		for i < len(ar) && j < len(br) {
			lo := max(ar[i].Start, br[j].Start)
			hi := min(ar[i].End, br[j].End)
			if lo < hi {
				merged = append(merged, SeqRange{Start: lo, End: hi})
			}
			if ar[i].End < br[j].End {
				i++
			} else {
				j++
			}
		}
		if len(merged) > 0 {
			out[agent] = merged
		}
	}
	return out
}

// EventsSinceSummary returns exactly the events this replica holds
// that the summary does not cover, in a valid causal order. This is
// the summary handshake's serving side: pass the other replica's
// Summary() to compute precisely what to send it — never a lossy
// known-subset resend.
//
// The output's causal validity does not require the summary to be any
// particular replica's: events are emitted in storage order (a
// topological order), and any parent of an emitted event that is not
// itself emitted is covered by the summary-intersected-with-us, which
// for a well-formed (causally closed) peer summary means the peer has
// it. A malformed summary can at worst make the receiver buffer
// events, never corrupt it. Like EventsSince, it returns ErrPruned if the
// events hold an insert whose character the document's file left out.
func (d *Doc) EventsSinceSummary(s VersionSummary) ([]Event, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var missing []causal.Span
	// The walk reads each entry's parents too; unused here, they stay in
	// a buffer on the stack.
	var pbuf [4]causal.RawID
	parents := pbuf[:0]
	for w := d.log.Graph.EntriesIn(causal.Span{Start: 0, End: causal.LV(d.log.Len())}); ; {
		span, id, ps, ok := w.NextIDs(parents)
		if !ok {
			break
		}
		parents = ps
		ranges := s[id.Agent]
		lo, hi := id.Seq, id.Seq+span.Len()
		i := sort.Search(len(ranges), func(i int) bool { return ranges[i].End > lo })
		for lo < hi {
			if i < len(ranges) && ranges[i].Start <= lo {
				// Covered: the peer has [lo, ranges[i].End).
				lo = min(ranges[i].End, hi)
				i++
				continue
			}
			uncEnd := hi
			if i < len(ranges) && ranges[i].Start < hi {
				uncEnd = ranges[i].Start
			}
			// Entry follows entry: a stretch the peer lacks that goes on
			// where the last one stopped is the same stretch.
			from, to := span.Start+causal.LV(lo-id.Seq), span.Start+causal.LV(uncEnd-id.Seq)
			if n := len(missing); n > 0 && missing[n-1].End == from {
				missing[n-1].End = to
			} else {
				missing = append(missing, causal.Span{Start: from, End: to})
			}
			lo = uncEnd
		}
	}
	if d.holdsPruned(missing) {
		return nil, ErrPruned
	}
	return d.eventsIn(missing), nil
}
