package colenc

import (
	"math"
	"slices"
)

// IDRun is a contiguous range of event IDs by one agent: Seq, Seq+1,
// …, Seq+Len-1. Inspect reports a frame's event IDs as runs — the
// same shape the agents column stores them in — so a caller tracking
// "which events do I hold" never materialises one ID per event.
type IDRun struct {
	Agent string
	Seq   int
	Len   int
}

// BlockInfo is the causal-dependency summary of a frame: everything a
// holder needs to decide whether the frame's events connect to a known
// history, without decoding positions or content.
type BlockInfo struct {
	// NumEvents is the frame's declared event count (validated against
	// the agents column).
	NumEvents int
	// Runs are the frame's event IDs in frame order.
	Runs []IDRun
	// ExternalParents are the parents encoded in (agent, seq) form.
	// They usually reference events outside the frame, but an in-frame
	// parent beyond the encoder's back-reference window also takes this
	// form — check membership against Runs ∪ prior history.
	ExternalParents []ID
	// HasDoc reports whether the frame carries the cached-document
	// column (a Doc.Save frame rather than a plain batch).
	HasDoc bool
}

// Inspect validates a frame's envelope (magic, flags, checksum, column
// framing) and decodes only the agents and parents columns, skipping
// ops and content entirely. It is the cheap path for scanning stored
// blocks: a caller learns which events a frame contributes and which
// prior events it depends on, at a fraction of Decode's cost and
// without allocating per-event structures.
//
// Inspect succeeding does not guarantee Decode would: the ops and
// content columns are covered by the checksum but not parsed here.
func Inspect(data []byte) (*BlockInfo, error) {
	return new(Decoder).Inspect(data)
}

// Inspect is the package-level Inspect on this Decoder's memory: it
// shares the agent table with DecodeRuns, and like a DecodeRuns result
// the BlockInfo is valid until the next call on d.
func (d *Decoder) Inspect(data []byte) (*BlockInfo, error) {
	d.reset()
	f, err := splitFrame(data, batchFlags, math.MaxInt32)
	if err != nil {
		return nil, err
	}
	if err := d.decodeAgents(&f.agents, f.n); err != nil {
		return nil, err
	}
	runs := slices.Grow(d.idRuns, len(d.table.runs))
	for _, run := range d.table.runs {
		runs = append(runs, IDRun{Agent: d.table.names[run.agent], Seq: run.seq, Len: run.n})
	}
	d.idRuns = runs
	ext, err := inspectParents(&f.parents, f.n, &d.table, d.parents)
	if err != nil {
		return nil, err
	}
	d.parents = ext
	d.info = BlockInfo{NumEvents: f.n, Runs: runs, ExternalParents: ext, HasDoc: f.flags&FlagCachedDoc != 0}
	return &d.info, nil
}

// inspectParents walks the parents column with the same validation as
// decodeRuns but materialises only the external-form parents, appended to
// ext.
// Default entries and back-references resolve to in-frame events and
// are skipped — a caller that already accepts the frame's own Runs
// learns nothing from them.
func inspectParents(r *reader, n int, ids *agentTable, ext []ID) ([]ID, error) {
	pc, err := parentEntries(r, len(ids.names), n)
	if err != nil {
		return nil, err
	}
	for pc.left > 0 {
		nPar, err := pc.count()
		if err != nil {
			return nil, err
		}
		for p := 0; p < nPar; p++ {
			back, ai, seq, err := pc.ref()
			if err != nil {
				return nil, err
			}
			if back == 0 {
				ext = append(ext, ID{Agent: ids.names[ai], Seq: seq})
			}
		}
		if err := pc.next(); err != nil {
			return nil, err
		}
	}
	return ext, pc.end()
}
