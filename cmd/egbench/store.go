package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"egwalker"
	"egwalker/internal/bench"
	"egwalker/store"
)

// The store subcommand measures the durable store (package store): how
// fast events append to the segmented WAL under different fsync
// policies, and how fast a cold open is — raw WAL-tail replay versus
// snapshot + tail after compaction. Usage:
//
//	egbench store [-store-events N] [-store-batch N] [-store-dir D]
var (
	storeEvents = flags.Int("store-events", 20000, "events to append (>= 10k recommended)")
	storeBatch  = flags.Int("store-batch", 16, "events per append batch (a typing burst)")
	storeDir    = flags.String("store-dir", "", "store root (default: a fresh temp dir, removed afterwards)")
)

func runStore() error {
	root := *storeDir
	if root == "" {
		tmp, err := os.MkdirTemp("", "egbench-store-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}
	fmt.Fprintf(stdout, "\n== store: append throughput and cold-open latency (%d events, batch %d) ==\n",
		*storeEvents, *storeBatch)

	// Source material: a peer document generating realistic edit
	// batches (weighted insert/delete bursts).
	src := egwalker.NewDoc("author")
	rng := rand.New(rand.NewSource(1))
	var batches [][]egwalker.Event
	last := egwalker.Version{}
	for total := 0; total < *storeEvents; {
		for b := 0; b < *storeBatch && total < *storeEvents; {
			if src.Len() > 0 && rng.Intn(5) == 0 {
				pos := rng.Intn(src.Len())
				n := 1 + rng.Intn(min(3, src.Len()-pos))
				if err := src.Delete(pos, n); err != nil {
					return err
				}
				b, total = b+n, total+n
			} else {
				word := make([]byte, 1+rng.Intn(8))
				for i := range word {
					word[i] = byte('a' + rng.Intn(26))
				}
				if err := src.Insert(rng.Intn(src.Len()+1), string(word)); err != nil {
					return err
				}
				b, total = b+len(word), total+len(word)
			}
		}
		evs, err := src.EventsSince(last)
		if err != nil {
			return err
		}
		last = src.Version()
		batches = append(batches, evs)
	}

	appendRun := func(docID string, syncEvery bool) (time.Duration, error) {
		ds, err := store.Open(root, docID, "bench", store.Options{SyncEveryCommit: syncEvery})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, evs := range batches {
			if _, err := ds.Apply(evs); err != nil {
				ds.Close()
				return 0, err
			}
		}
		if err := ds.Sync(); err != nil {
			ds.Close()
			return 0, err
		}
		elapsed := time.Since(start)
		return elapsed, ds.Close()
	}

	// Append throughput, batched fsync (group commit: one Sync at the
	// end stands in for a server's interval flusher).
	batched, err := appendRun("bench-batched", false)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-34s %12s   %10.0f events/s\n", "append (batched fsync)",
		bench.FmtDuration(batched), float64(*storeEvents)/batched.Seconds())

	// Append throughput, fsync every commit.
	synced, err := appendRun("bench-synced", true)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-34s %12s   %10.0f events/s\n", "append (fsync per batch)",
		bench.FmtDuration(synced), float64(*storeEvents)/synced.Seconds())

	// Cold open from pure WAL (no snapshot was ever taken).
	coldWAL := bench.Timed(func() {
		ds, err := store.Open(root, "bench-batched", "bench", store.Options{})
		if err != nil {
			panic(err)
		}
		if ds.NumEvents() == 0 {
			panic("cold open lost the events")
		}
		ds.Close()
	})
	fmt.Fprintf(stdout, "%-34s %12s\n", "cold open (WAL replay only)", bench.FmtDuration(coldWAL))

	// Compact, then cold open from snapshot + empty tail.
	ds, err := store.Open(root, "bench-batched", "bench", store.Options{})
	if err != nil {
		return err
	}
	if err := ds.Compact(); err != nil {
		ds.Close()
		return err
	}
	snapBytes, walBytes, _ := ds.DiskUsage()
	if err := ds.Close(); err != nil {
		return err
	}
	coldSnap := bench.Timed(func() {
		ds, err := store.Open(root, "bench-batched", "bench", store.Options{})
		if err != nil {
			panic(err)
		}
		if ds.NumEvents() == 0 {
			panic("cold open lost the events")
		}
		ds.Close()
	})
	fmt.Fprintf(stdout, "%-34s %12s   %6.1fx faster\n", "cold open (snapshot + tail)",
		bench.FmtDuration(coldSnap), float64(coldWAL)/float64(coldSnap))
	fmt.Fprintf(stdout, "%-34s %12s snapshot + %s WAL\n", "on-disk size after compaction",
		bench.FmtBytes(uint64(snapBytes)), bench.FmtBytes(uint64(walBytes)))
	return nil
}

// maybeRunStore intercepts the store subcommand before trace
// generation, like maybeRunSim.
