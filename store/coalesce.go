package store

import (
	"fmt"
	"slices"

	"egwalker"
	"egwalker/internal/colenc"
	"egwalker/internal/oplog"
)

// maxCoalescedEvents caps the events of one coalesced frame, so what a
// cold join or a slow reader's queue holds decoded at once does not grow
// with the backlog.
const maxCoalescedEvents = 4096

// coalescer merges consecutive event batches — the WAL blocks a cold join
// streams, the frames queued for a slow reader — into few frames.
// Consecutive payloads are grouped up to maxCoalescedEvents events, and a
// group of colenc.ColumnarFrom events or more goes out as the one
// columnar payload egwalker.MarshalBatches writes for its events. A lone
// payload goes out verbatim, and so does a group of fewer events (a few
// keystrokes: the batch writer's legacy codec would need them decoded
// again, into events) and a group whose merge would not be smaller or
// would pass MaxBatchBytes.
//
// Every payload is decoded, and so checked, as it is added: one that does
// not decode is an error, and nothing of its group has gone out. A
// columnar payload's runs are copied out of the pooled decoder and
// encoded again without becoming events (colenc.EncodeRuns writes what
// MarshalBatches does for the same events, wherever the runs break); a
// legacy payload's events join the group as one-event runs. Going
// through []Event and MarshalBatches instead made a cold join slower
// than sending every block as it lay; going through runs does not.
type coalescer struct {
	emit func(payload []byte) error
	dec  *colenc.Decoder

	group   [][]byte     // the open group's payloads, as added
	bytes   int          // their length
	n       int          // their events
	runs    []colenc.Run // their runs; Parents and Content are cut from
	parents []colenc.ID  // these two arenas, which only grow until
	content []rune       // the group is flushed
}

// newCoalescer returns a coalescer handing what it writes to emit; release
// it when done.
func newCoalescer(emit func(payload []byte) error) *coalescer {
	return &coalescer{emit: emit, dec: colenc.GetDecoder()}
}

func (c *coalescer) release() { c.dec.Put() }

// add decodes payload and adds it to the open group, flushing the group
// first when payload's events would take it past maxCoalescedEvents. The
// coalescer keeps payload until the group is flushed.
func (c *coalescer) add(payload []byte) error {
	var runs []colenc.Run
	var events []egwalker.Event
	n := 0
	if colenc.Sniff(payload) {
		d, err := c.dec.DecodeRuns(payload, colenc.MaxBatchEvents)
		if err != nil {
			return fmt.Errorf("store: batch does not decode: %w", err)
		}
		runs, n = d.Runs, d.NumEvents
	} else {
		var err error
		if events, err = egwalker.UnmarshalEventsAuto(payload); err != nil {
			return fmt.Errorf("store: batch does not decode: %w", err)
		}
		n = len(events)
	}
	if c.n+n > maxCoalescedEvents {
		if err := c.flush(); err != nil {
			return err
		}
	}
	c.group = append(c.group, payload)
	c.bytes += len(payload)
	c.n += n
	for _, r := range runs {
		p, k := len(c.parents), len(c.content)
		c.parents = append(c.parents, r.Parents...)
		c.content = append(c.content, r.Content...)
		r.Parents, r.Content = c.parents[p:], c.content[k:]
		c.runs = append(c.runs, r)
	}
	for _, ev := range events {
		r := colenc.Run{ID: colenc.ID(ev.ID), Run: oplog.Unit(ev.Insert, ev.Pos)}
		p, k := len(c.parents), len(c.content)
		for _, q := range ev.Parents {
			c.parents = append(c.parents, colenc.ID(q))
		}
		if ev.Insert {
			c.content = append(c.content, ev.Content)
		}
		r.Parents, r.Content = c.parents[p:], c.content[k:]
		c.runs = append(c.runs, r)
	}
	return nil
}

// flush writes the open group out and empties it.
func (c *coalescer) flush() error {
	group := c.group
	var merged []byte
	if len(group) > 1 && c.n >= colenc.ColumnarFrom {
		var err error
		if merged, err = colenc.EncodeRuns(slices.Values(c.runs), colenc.Options{}); err != nil {
			return err
		}
		if len(merged) >= c.bytes || len(merged) > egwalker.MaxBatchBytes {
			merged = nil
		}
	}
	c.group, c.runs, c.parents, c.content = c.group[:0], c.runs[:0], c.parents[:0], c.content[:0]
	c.bytes, c.n = 0, 0
	if merged != nil {
		return c.emit(merged)
	}
	for i, payload := range group {
		group[i] = nil
		if err := c.emit(payload); err != nil {
			return err
		}
	}
	return nil
}
