package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"egwalker"
	"egwalker/internal/loadgen"
	"egwalker/internal/metrics"
	"egwalker/netsync"
)

// coldAgg accumulates join measurements across workers.
type coldAgg struct {
	joins        atomic.Int64
	joinErrors   atomic.Int64
	firstFrameNs metrics.Histogram
	catchupNs    metrics.Histogram
}

// runColdDocs populates -cold-docs documents (one short-lived compact
// writer each — a write-mostly fleet far beyond any materialization
// cap) and then samples -cold-joins cold compact joins, measuring the
// catch-up latency. The server's block_serves / lazy_materializations
// metrics (embedded via -metrics-url) tell whether the joins were
// served off disk or forced materializations.
func (c *config) runColdDocs(stderr io.Writer) (loadgen.Result, error) {
	n := c.coldDocs
	docIDs := make([]string, n)
	for i := range docIDs {
		docIDs[i] = fmt.Sprintf("%s/colddocs/doc-%05d", c.docPrefix, i)
	}

	// One deterministic history, uploaded as one compact batch per
	// document: every document carries the same event count, so a join
	// knows when its catch-up is complete.
	seedDoc := egwalker.NewDoc("cold-w")
	if err := seedDoc.Insert(0, "the quick brown fox jumps over the lazy dog, repeatedly and durably"); err != nil {
		return loadgen.Result{}, err
	}
	events := seedDoc.Events()
	perDoc := len(events)

	const workers = 16
	popStart := time.Now()
	var popErrs atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := populateCold(c.addr, docIDs[i], events); err != nil {
					popErrs.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}()
	}
	wg.Wait()
	if e := popErrs.Load(); e > 0 {
		return loadgen.Result{}, fmt.Errorf("populating %d/%d documents failed (first: %v)", e, n, firstErr.Load())
	}
	populateSec := time.Since(popStart).Seconds()

	joins := min(c.coldJoins, n)
	agg := &coldAgg{}
	rng := rand.New(rand.NewSource(c.seed))
	targets := rng.Perm(n)[:joins]
	joinStart := time.Now()
	var idx atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= len(targets) {
					return
				}
				if err := coldJoin(c.addr, docIDs[targets[i]], perDoc, agg); err != nil {
					agg.joinErrors.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(joinStart)
	if e := agg.joinErrors.Load(); e > 0 {
		fmt.Fprintf(stderr, "egload: colddocs: %d/%d joins failed (first: %v)\n", e, joins, firstErr.Load())
	}

	return loadgen.Result{
		Name:        "colddocs",
		DurationSec: elapsed.Seconds(),
		Docs:        n,
		Cold: &loadgen.ColdResult{
			Docs:         n,
			EventsPerDoc: perDoc,
			PopulateSec:  populateSec,
			Joins:        agg.joins.Load(),
			JoinErrors:   agg.joinErrors.Load(),
			FirstFrameNs: agg.firstFrameNs.Snapshot(),
			CatchupNs:    agg.catchupNs.Snapshot(),
		},
	}, nil
}

// populateCold seeds one document with the shared history over a
// short-lived connection, then hangs up — the write-mostly pattern:
// after this, nothing touches the document until a cold join.
func populateCold(addr, docID string, events []egwalker.Event) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	pc := netsync.NewPeerConn(conn)
	if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		return err
	}
	// The first inbound frame is the (empty) catch-up; drain it so the
	// server's fan-out path never sees this connection as slow.
	if _, _, _, err := pc.Recv(); err != nil {
		return err
	}
	if err := pc.SendEvents(events); err != nil {
		return err
	}
	return pc.SendDone()
}

// coldJoin joins one document cold (a hello with no summary) and reads
// until the full history arrived (the population gives every document
// the same event count, so completion is detectable client-side).
func coldJoin(addr, docID string, wantEvents int, agg *coldAgg) error {
	start := time.Now()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	pc := netsync.NewPeerConn(conn)
	if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		return err
	}
	doc := egwalker.NewDoc("cold-join")
	first := true
	for doc.NumEvents() < wantEvents {
		evs, _, done, err := pc.Recv()
		if err != nil {
			return fmt.Errorf("join %s after %d/%d events: %w", docID, doc.NumEvents(), wantEvents, err)
		}
		if first {
			agg.firstFrameNs.Observe(time.Since(start).Nanoseconds())
			first = false
		}
		if done {
			break
		}
		if _, err := doc.Apply(evs); err != nil {
			return err
		}
	}
	if got := doc.NumEvents(); got != wantEvents {
		return fmt.Errorf("join %s: got %d events, want %d", docID, got, wantEvents)
	}
	agg.catchupNs.Observe(time.Since(start).Nanoseconds())
	agg.joins.Add(1)
	return nil
}
