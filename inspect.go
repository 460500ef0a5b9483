package egwalker

import (
	"egwalker/internal/colenc"
)

// This file exposes cheap structural inspection of compact columnar
// batches (internal/colenc) for holders of encoded blocks — the store
// journals uploaded frames verbatim and must learn each block's event
// IDs and causal dependencies without paying for a full decode — and of
// what a document's merges cost it.

// ReplayStats counts what a document's Apply calls did with concurrent
// sections of the event graph (the stretches between two critical
// versions, which need the Eg-walker internal state). A merge that ends
// inside a section keeps the section's state for the next one to
// continue; SectionsContinued against SectionsRebuilt says how often
// that worked, EventsReplayedSilently against EventsReplayed how much of
// the replay only rebuilt state the document once had.
type ReplayStats struct {
	SectionsContinued uint64 // sections picked up where the last Apply left them
	SectionsRebuilt   uint64 // sections replayed from their base
	// EventsReplayed is the number of events put through an internal
	// state; EventsReplayedSilently those of them that were in the text
	// already and were replayed for the state alone.
	EventsReplayed         uint64
	EventsReplayedSilently uint64
	// GraphEntriesVisited is the number of run-length entries of the
	// event graph walked in search of critical versions.
	GraphEntriesVisited uint64
	// RetainedItems is the size, in records, of the internal state the
	// document holds for the next Apply; 0 when it holds none.
	RetainedItems int
}

// ReplayStats returns the document's replay counters. They start at zero
// in a new, loaded or forked document.
func (d *Doc) ReplayStats() ReplayStats { return ReplayStats(d.walker.Stats()) }

// MemStats sizes a document in memory. The history is a handful of flat
// arrays (docs/ARCHITECTURE.md, "How the log is laid out in memory"), so
// everything but TextBytes is read off their lengths and capacities;
// TextBytes walks the rope, one node per hundred characters or so.
type MemStats struct {
	Events       int // events in the history
	OpSpans      int // run-length records the operations are stored in
	GraphEntries int // run-length records the event graph is stored in
	// LogBytes is the heap the history holds: the two kinds of record,
	// the inserted characters, the stored parents and the per-agent
	// indexes. LogBytes / Events is what an event costs a replica that
	// has the document open.
	LogBytes int
	// TextBytes is the heap the current text holds.
	TextBytes int
	// RetainedItems is ReplayStats().RetainedItems: the records of
	// internal state kept for the next Apply, about 130 bytes each.
	RetainedItems int
}

// MemStats reports what the document holds in memory.
func (d *Doc) MemStats() MemStats {
	return MemStats{
		Events:        d.log.Len(),
		OpSpans:       d.log.SpanCount(),
		GraphEntries:  d.log.Graph.Entries(),
		LogBytes:      d.log.Bytes(),
		TextBytes:     d.text.Bytes(),
		RetainedItems: d.walker.Stats().RetainedItems,
	}
}

// IDRun is a contiguous range of event IDs by one agent: Seq, Seq+1,
// …, Seq+Len-1.
type IDRun struct {
	Agent string
	Seq   int
	Len   int
}

// BatchInfo summarises a compact batch's causal structure: the event
// IDs it contributes (as runs, in batch order) and the parents it
// references in external (agent, seq) form.
type BatchInfo struct {
	// Events is the batch's event count.
	Events int
	// Runs are the batch's event IDs in batch order.
	Runs []IDRun
	// ExternalParents are parents encoded by (agent, seq) reference.
	// Most point outside the batch, but an in-batch parent beyond the
	// encoder's back-reference window takes this form too — check
	// membership against Runs as well as prior history.
	ExternalParents []EventID
}

// IsCompactBatch reports whether data begins with the compact columnar
// magic (as opposed to the legacy MarshalEvents encoding).
func IsCompactBatch(data []byte) bool { return colenc.Sniff(data) }

// InspectBatch validates a compact batch's envelope (magic, flags,
// checksum, column framing) and decodes only its ID and dependency
// structure, skipping positions and content. It costs a fraction of
// UnmarshalEventsAuto and allocates only the BatchInfo it returns.
//
// Only compact batches inspect; legacy payloads return an error
// (decode those with UnmarshalEvents — they are small by construction).
// InspectBatch succeeding does not guarantee a full decode would: the
// op and content columns are checksummed but not parsed here.
func InspectBatch(data []byte) (*BatchInfo, error) {
	d := colenc.GetDecoder()
	defer d.Put()
	bi, err := d.Inspect(data)
	if err != nil {
		return nil, err
	}
	info := &BatchInfo{Events: bi.NumEvents}
	info.Runs = make([]IDRun, len(bi.Runs))
	for i, r := range bi.Runs {
		info.Runs[i] = IDRun{Agent: r.Agent, Seq: r.Seq, Len: r.Len}
	}
	if len(bi.ExternalParents) > 0 {
		info.ExternalParents = make([]EventID, len(bi.ExternalParents))
		for i, p := range bi.ExternalParents {
			info.ExternalParents[i] = EventID{Agent: p.Agent, Seq: p.Seq}
		}
	}
	return info, nil
}
