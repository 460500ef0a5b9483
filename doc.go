// Package egwalker is a collaborative plain-text editing library
// implementing the Eg-walker algorithm (Gentle & Kleppmann,
// "Collaborative Text Editing with Eg-walker: Better, Faster, Smaller",
// EuroSys 2025).
//
// Each replica holds a Doc: the document text plus the full editing
// history as an event graph. Local edits apply immediately; concurrent
// remote edits merge deterministically — any two replicas that have seen
// the same events converge to identical text, with no central server
// required.
//
// Unlike classic CRDT libraries, a Doc holds no per-character metadata
// in the steady state: merging builds a transient internal structure
// only for the concurrent portion of the history and discards it
// afterwards, so memory use and document load time match plain-text
// editing. Unlike classic OT, merging two branches of n events costs
// O(n log n) rather than O(n²).
//
// # Quick start
//
//	alice := egwalker.NewDoc("alice")
//	alice.Insert(0, "Helo")
//
//	bob := egwalker.NewDoc("bob")
//	bob.Apply(alice.Events())      // sync
//
//	alice.Insert(3, "l")           // concurrent edits...
//	bob.Insert(4, "!")
//
//	bob.Apply(alice.EventsSince(bobHas))   // exchange events
//	alice.Apply(bob.EventsSince(aliceHas))
//	// alice.Text() == bob.Text() == "Hello!"
//
// Events can be shipped over any transport that eventually delivers
// them; Apply buffers events whose parents have not arrived yet, so no
// delivery-order guarantees are needed beyond eventual delivery.
//
// # Testing the convergence claim
//
// The central guarantee — replicas that have seen the same events hold
// identical text — is exercised continuously by internal/sim: a
// deterministic, seed-driven network simulator that drives N ≥ 8
// replicas with randomized edit scripts and delivers their events
// through a fault-injecting virtual transport (latency and reordering,
// loss with retransmission, duplication, partitions that heal, and
// long offline divergence). After each run a convergence oracle checks
// every replica's text against the others, against an independent
// replay of the merged event graph, and against the reference list
// CRDT, and round-trips the state through Save/Load and Fork/Merge.
// The same seed always reproduces the same run, so a failing seed
// becomes a permanent regression test.
//
// Doc.Fingerprint supports the same pattern in production: replicas
// can gossip fingerprints as a cheap convergence check and fall back
// to netsync.Sync when they differ.
//
// # Persistence and the compact encoding ("Smaller")
//
// Save/Load write and read whole documents in a compact columnar
// format (§3.8): run-length columns for agent runs, op runs,
// parent-graph exceptions, and contiguous inserted content —
// typically under a byte per event on typing-dominated histories,
// ~10x smaller than the per-event batch codec. docs/FORMAT.md is the
// byte-level specification (complete enough to decode the golden
// fixtures under testdata/colenc by hand), and docs/ARCHITECTURE.md
// maps the packages involved. The same frame serves event batches:
// MarshalBatches, the one writer of every batch netsync sends and store
// journals, writes it from 4 events (below that the legacy per-event
// codec is the smaller, and it writes that), and UnmarshalEventsAuto
// sniff-decodes either. Files of the legacy "EGW1" format, which
// nothing writes any more, still load via magic sniffing.
//
// SaveOptions.OmitDeletedContent writes a pruned file, without the
// characters of deleted inserts (the paper's Fig. 12): a document loaded
// from one merges and edits as any other, but returns ErrPruned rather
// than hand out a placeholder for a dropped character — from
// EventsSince, EventsSinceSummary, Merge, an unpruned Save, or TextAt of
// a version in which the character is not yet deleted. Events, which has
// no error to return, hands out U+FFFD for them.
//
// Package store builds the durable layer on those primitives: each
// document gets an append-only, segmented write-ahead log of
// CRC-protected blocks, each one event batch (store alone writes and
// reads the block format; torn tails are truncated on reopen), periodic
// snapshots via Doc.Save with the final text cached, and compaction
// that folds sealed segments into a fresh snapshot — steady state on
// disk is one snapshot plus the active WAL tail. store.Server hosts
// many documents behind string IDs with an LRU of materialized Docs
// and batched fsyncs, and cmd/egserve exposes it over TCP: clients
// join a hosted document with netsync.Dial(doc, conn, id) and then
// push/receive events exactly as against a netsync.Relay.
// Crash recovery is exercised by randomized kill-point tests and by
// internal/sim's crash-restart fault mode.
//
// # Observability and load
//
// A reconnecting client resumes incrementally: netsync.Dial presents
// the doc's version summary (Doc.Summary) in the hello and the client
// receives only the events it lacks — EventsSinceSummary catch-up
// instead of the full history — so reconnecting after a blip, or after
// being severed for falling behind, costs the missing tail rather than
// the whole document. store.Server instruments its live path with
// lock-free metrics (internal/metrics): apply and fsync latency
// histograms, group-commit batch sizes, outbox depths, and
// sever/eviction/resume counters, served as JSON by cmd/egserve's
// -metrics-addr endpoint. cmd/egload is the matching open-loop load
// generator: it drives a live server over TCP with workload mixes
// (sequential typing, concurrent bursts, trace-calibrated edits,
// reconnect churn, Zipf-skewed hot documents) and writes throughput
// and p50/p95/p99 fan-out latency to BENCH_server.json, the repo's
// accumulating server-performance trajectory.
//
// # Performance: span-wise replay
//
// The replay pipeline is run-length encoded end-to-end (paper §3.8),
// and so are the ways in and out of a Doc: Apply groups the events it is
// handed into runs and appends each to the history whole, Save and Load
// stream runs between the history and the file's columns, and Events /
// EventsSince expand runs into single-character Events only as they
// fill the slice they return (docs/ARCHITECTURE.md, "Runs across the
// Doc boundary").
// The event graph and operation log store runs — typed text,
// held-down delete, held-down backspace — as single spans; the internal
// state (internal/itemtree) keeps each run as one B-tree record that is
// split only when a concurrent operation lands inside it, and the
// tracker (internal/core) applies, retreats, advances, and emits whole
// runs per B-tree operation. Transformed operations (core.XOp, the
// public Patch) are spans too, applied to the rope run-at-a-time, so a
// 10,000-character typing burst costs a handful of tree operations
// rather than 10,000. Three replay configurations exist: the span-wise
// pipeline (the default), the same pipeline without the §3.5
// critical-version optimisations (core.TransformAllNoOpt, Figure 9's
// ablation), and a per-unit reference implementation
// (core.TransformAllUnitRef) retained as the differential oracle —
// fuzzers, the simulator oracle, and per-trace tests hold the span-wise
// output byte-identical to it, and its emitted stream expands to
// exactly the per-unit stream. cmd/egbench's core subcommand measures
// both configurations (ns/event, peak transient heap, allocations) and
// writes BENCH_core.json; the committed baseline at the repo root
// records the measured speedups (2.8–14x across the paper's trace
// classes, with 2–30x fewer allocations and lower peak heap).
package egwalker
