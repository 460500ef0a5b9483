package egwalker

import (
	"iter"
	"slices"

	"egwalker/internal/colenc"
	"egwalker/internal/oplog"
)

// This file is the public edge of internal/colenc, the compact columnar
// batch codec (docs/FORMAT.md). The codec's currency is the run; the
// public API's is the single-character Event. MarshalEventsCompact
// groups a batch into runs on its way in (runsOf) and
// UnmarshalEventsAuto writes the events out on the way back
// (eventsFromRuns): one step each way, with no per-event copy in the
// codec's own types in between. Two encodings of an event batch coexist:
//
//   - the legacy per-event codec (MarshalEvents in batch.go) — a 2-byte
//     header, so the smaller of the two for a batch of up to 3 events,
//     and what every pre-colenc file, WAL segment and peer speaks;
//   - the columnar codec (MarshalEventsCompact) — run-length columns,
//     typically 2-10x smaller on real editing histories.
//
// MarshalBatches (batch.go) is the one writer that picks between them.
// The two are distinguished by the columnar magic, so every reader
// calls UnmarshalEventsAuto.

// MarshalEventsCompact encodes a batch of events in the compact
// columnar format. The batch must be in causal order (parents precede
// children within the batch), as Doc.Events and Doc.EventsSince
// produce. Decode with UnmarshalEventsAuto.
func MarshalEventsCompact(events []Event) ([]byte, error) {
	return colenc.EncodeRuns(runsOf(events), colenc.Options{})
}

// runsOf groups a batch held event by event into the codec's runs (the
// internal package cannot name the root package's types, so this side
// does the grouping). A run's Parents and Content are valid until the
// next one is produced.
func runsOf(events []Event) iter.Seq[colenc.Run] {
	return func(yield func(colenc.Run) bool) {
		var parents []colenc.ID
		var content []rune
		for i := 0; i < len(events); {
			op, j := runAt(events, i)
			parents = parents[:0]
			for _, p := range events[i].Parents {
				parents = append(parents, colenc.ID(p))
			}
			if op.Kind == oplog.Insert {
				content = content[:0]
				for _, ev := range events[i:j] {
					content = append(content, ev.Content)
				}
				op.Content = content
			}
			if !yield(colenc.Run{ID: colenc.ID(events[i].ID), Parents: parents, Run: op}) {
				return
			}
			i = j
		}
	}
}

// maxAutoDecodeEvents caps the event count UnmarshalEventsAuto accepts
// from a columnar payload (see colenc.MaxBatchEvents for the reasoning).
const maxAutoDecodeEvents = colenc.MaxBatchEvents

// UnmarshalEventsAuto decodes an event batch in either encoding,
// sniffing the columnar magic. Every batch reader calls it:
// MarshalBatches picks the encoding payload by payload, so WAL segments
// and network frames interleave the two freely. It accepts any batch
// MarshalEventsCompact produces, up to maxAutoDecodeEvents.
//
// A columnar payload is decoded through a pooled colenc.Decoder, so the
// events and the ID array their default parents are cut from are the only
// memory a small batch costs; nothing returned points into the decoder.
func UnmarshalEventsAuto(data []byte) ([]Event, error) {
	if !colenc.Sniff(data) {
		return unmarshalEvents(data)
	}
	d := colenc.GetDecoder()
	defer d.Put()
	dec, err := d.DecodeRuns(data, maxAutoDecodeEvents)
	if err != nil {
		return nil, err
	}
	return eventsFromRuns(dec.NumEvents, slices.Values(dec.Runs)), nil
}
