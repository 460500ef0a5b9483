package egwalker

// This file reports what a document's merges cost it and what it holds
// in memory.

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
	// ContentBytes is the part of LogBytes that holds the inserted
	// characters: their UTF-8, a byte for an ASCII character, and a
	// 4-byte offset for every 64th.
	ContentBytes int
	// TextBytes is the heap the current text holds.
	TextBytes int
	// RetainedItems is ReplayStats().RetainedItems: the records of
	// internal state kept for the next Apply, about 85 bytes each.
	RetainedItems int
	// RetainedBytes is the heap of the internal state kept between Applies,
	// from its arrays' capacities: the records of a section left open, or
	// the storage of an emptied one kept for the next section (at most
	// 32 KB); 0 when the document keeps none.
	RetainedBytes int
}

// MemStats reports what the document holds in memory.
func (d *Doc) MemStats() MemStats {
	return MemStats{
		Events:        d.log.Len(),
		OpSpans:       d.log.SpanCount(),
		GraphEntries:  d.log.Graph.Entries(),
		LogBytes:      d.log.Bytes(),
		ContentBytes:  d.log.ContentBytes(),
		TextBytes:     d.text.Bytes(),
		RetainedItems: d.walker.Stats().RetainedItems,
		RetainedBytes: d.walker.RetainedBytes(),
	}
}
