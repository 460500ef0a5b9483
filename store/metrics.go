package store

import (
	"time"

	"egwalker/internal/metrics"
)

// Metrics is the server's live-path observability surface: every
// counter and histogram a Server updates while hosting documents.
// Fields are updated with atomics (see internal/metrics), so reading
// them is always safe; Snapshot captures a JSON-ready summary for the
// egserve metrics endpoint and for load-test reports.
//
// Glossary:
//
//   - ApplyNs: wall time for one uploaded batch to be merged into the
//     document and journaled to the WAL (includes per-document lock
//     wait, so it surfaces hot-document contention).
//   - FsyncNs: duration of one group-commit fsync of one document's
//     WAL — the fsync-stall signal.
//   - CommitBatchEvents: events made durable by one group-commit fsync
//     of one document (how much work each fsync amortizes).
//   - FanoutBatchEvents: events per applied batch.
//   - OutboxDepth: a subscriber's outbox occupancy sampled before each
//     fan-out send; a climbing depth is a peer falling behind.
//   - PeersSevered: subscribers disconnected for not draining their
//     outbox (they reconnect with a resume hello).
//   - Resumes / FullSnapshots: how connections joined — incremental
//     catch-up vs. full history — with ResumeEvents / SnapshotEvents
//     counting the events each path shipped.
//   - SectionsContinued / SectionsRebuilt: how merges into materialized
//     documents met the concurrent sections of their event graphs — with
//     the Eg-walker state the merge before had kept, or by replaying the
//     section from its base (egwalker.ReplayStats). SilentReplayEvents
//     counts the events replayed only to rebuild state, the wasted work;
//     against EventsApplied it is the replay amplification.
//     RetainedTrackerItems is the live total of state records
//     materialized documents hold for their next merge.
type Metrics struct {
	ApplyNs       metrics.Histogram
	FsyncNs       metrics.Histogram
	CompactNs     metrics.Histogram
	OpenNs        metrics.Histogram
	MaterializeNs metrics.Histogram

	CommitBatchEvents metrics.Histogram
	FanoutBatchEvents metrics.Histogram
	OutboxDepth       metrics.Histogram

	EventsApplied  metrics.Counter
	BatchesApplied metrics.Counter
	PeersSevered   metrics.Counter
	Evictions      metrics.Counter
	ColdOpens      metrics.Counter
	Compactions    metrics.Counter
	FsyncErrors    metrics.Counter

	// Connection-scale fan-out: CoalescedFrames counts frames
	// eliminated by merging a slow peer's adjacent queued batches into
	// one re-marshalled batch (the reprieve before severing);
	// OutboxBytes is the live server-wide total of queued fan-out bytes
	// across every subscriber — by construction it never exceeds
	// ServerOptions.OutboxBytesTotal; ConnCount is the number of
	// connections currently inside ServeHello (subscribers, replica
	// links, and connections still in catch-up alike).
	CoalescedFrames metrics.Counter
	OutboxBytes     metrics.Gauge
	ConnCount       metrics.Gauge

	Resumes        metrics.Counter
	FullSnapshots  metrics.Counter
	ResumeEvents   metrics.Counter
	SnapshotEvents metrics.Counter

	// Zero-materialization serve path: BlockServes counts catch-ups
	// streamed as verbatim encoded blocks (no document built);
	// LazyMaterializations counts documents that had to be built on
	// demand (a Text query, a decoded catch-up, a resume diff, a
	// compaction); ResumeFallbacks counts summary hellos whose diff
	// could not be built and degraded to a full catch-up.
	// SummaryResumes counts resume hellos answered with an exact
	// summary diff.
	BlockServes          metrics.Counter
	BlockServeEvents     metrics.Counter
	LazyMaterializations metrics.Counter
	ResumeFallbacks      metrics.Counter
	SummaryResumes       metrics.Counter

	// Cluster replication: batches/events ingested over server-to-server
	// replica links, anti-entropy summary exchanges answered, and events
	// shipped out as exchange catch-ups.
	ReplicaBatchesIn metrics.Counter
	ReplicaEventsIn  metrics.Counter
	ReplicaExchanges metrics.Counter
	ReplicaEventsOut metrics.Counter

	SectionsContinued    metrics.Counter
	SectionsRebuilt      metrics.Counter
	SilentReplayEvents   metrics.Counter
	RetainedTrackerItems metrics.Gauge

	// Self-healing storage: ScrubPasses counts completed scrub sweeps
	// over the whole root and ScrubBytes the bytes they re-verified;
	// CorruptBlocks counts damage findings (each quarantines its
	// document); Repairs / RepairEvents count successful rebuilds and
	// the events their replica diffs restored; RepairFailures counts
	// repair attempts that failed (left quarantined, retried later);
	// WALWriteErrors counts documents degraded read-only by an append
	// or fsync error (ENOSPC, a dying disk).
	ScrubPasses    metrics.Counter
	ScrubBytes     metrics.Counter
	CorruptBlocks  metrics.Counter
	Repairs        metrics.Counter
	RepairEvents   metrics.Counter
	RepairFailures metrics.Counter
	WALWriteErrors metrics.Counter

	OpenDocs    metrics.Gauge
	Subscribers metrics.Gauge
	// MaterializedDocs tracks how many open documents currently hold a
	// full in-memory egwalker.Doc — the LRU's real population;
	// OpenDocs counts every open document, journal-only ones included.
	MaterializedDocs metrics.Gauge
	// MaterializedLogBytes is the history those documents hold in
	// memory (egwalker.MemStats.LogBytes, summed): what the hot set
	// costs in RAM besides the texts, and the number to size
	// MaxOpenDocs from. A document's share is measured when it is
	// materialized and again at each snapshot, and taken back whole
	// when it is let go.
	MaterializedLogBytes metrics.Gauge
	// QuarantinedDocs tracks how many documents are currently
	// quarantined (serving a salvaged prefix read-only, awaiting
	// repair).
	QuarantinedDocs metrics.Gauge
}

// MetricsSnapshot is a point-in-time copy of every metric, shaped for
// JSON (the egserve /metrics endpoint returns exactly this).
type MetricsSnapshot struct {
	ApplyNs       metrics.HistogramSnapshot `json:"apply_ns"`
	FsyncNs       metrics.HistogramSnapshot `json:"fsync_ns"`
	CompactNs     metrics.HistogramSnapshot `json:"compact_ns"`
	OpenNs        metrics.HistogramSnapshot `json:"open_ns"`
	MaterializeNs metrics.HistogramSnapshot `json:"materialize_ns"`

	CommitBatchEvents metrics.HistogramSnapshot `json:"commit_batch_events"`
	FanoutBatchEvents metrics.HistogramSnapshot `json:"fanout_batch_events"`
	OutboxDepth       metrics.HistogramSnapshot `json:"outbox_depth"`

	EventsApplied  int64 `json:"events_applied"`
	BatchesApplied int64 `json:"batches_applied"`
	PeersSevered   int64 `json:"peers_severed"`
	Evictions      int64 `json:"evictions"`
	ColdOpens      int64 `json:"cold_opens"`
	Compactions    int64 `json:"compactions"`
	FsyncErrors    int64 `json:"fsync_errors"`

	CoalescedFrames int64 `json:"coalesced_frames"`
	OutboxBytes     int64 `json:"outbox_bytes"`
	ConnCount       int64 `json:"conn_count"`
	// SeverRate is PeersSevered per second of server uptime, derived by
	// Server.MetricsSnapshot (a bare Metrics has no uptime and leaves
	// it zero). A sustained non-zero rate means the fleet is running at
	// an offered load its slowest subscribers cannot drain.
	SeverRate float64 `json:"sever_rate"`
	UptimeSec float64 `json:"uptime_sec"`

	Resumes        int64 `json:"resumes"`
	FullSnapshots  int64 `json:"full_snapshots"`
	ResumeEvents   int64 `json:"resume_events"`
	SnapshotEvents int64 `json:"snapshot_events"`

	BlockServes          int64 `json:"block_serves"`
	BlockServeEvents     int64 `json:"block_serve_events"`
	LazyMaterializations int64 `json:"lazy_materializations"`
	ResumeFallbacks      int64 `json:"resume_fallbacks"`
	SummaryResumes       int64 `json:"summary_resumes"`

	ReplicaBatchesIn int64 `json:"replica_batches_in"`
	ReplicaEventsIn  int64 `json:"replica_events_in"`
	ReplicaExchanges int64 `json:"replica_exchanges"`
	ReplicaEventsOut int64 `json:"replica_events_out"`

	SectionsContinued    int64 `json:"sections_continued"`
	SectionsRebuilt      int64 `json:"sections_rebuilt"`
	SilentReplayEvents   int64 `json:"silent_replay_events"`
	RetainedTrackerItems int64 `json:"retained_tracker_items"`

	ScrubPasses    int64 `json:"scrub_passes"`
	ScrubBytes     int64 `json:"scrub_bytes"`
	CorruptBlocks  int64 `json:"corrupt_blocks"`
	Repairs        int64 `json:"repairs"`
	RepairEvents   int64 `json:"repair_events"`
	RepairFailures int64 `json:"repair_failures"`
	WALWriteErrors int64 `json:"wal_write_errors"`

	OpenDocs             int64 `json:"open_docs"`
	Subscribers          int64 `json:"subscribers"`
	MaterializedDocs     int64 `json:"materialized_docs"`
	MaterializedLogBytes int64 `json:"materialized_log_bytes"`
	QuarantinedDocs      int64 `json:"quarantined_docs"`
}

// snapshot captures all metrics. Concurrent updates may land on either
// side of the capture; each individual metric is consistent.
func (m *Metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		ApplyNs:       m.ApplyNs.Snapshot(),
		FsyncNs:       m.FsyncNs.Snapshot(),
		CompactNs:     m.CompactNs.Snapshot(),
		OpenNs:        m.OpenNs.Snapshot(),
		MaterializeNs: m.MaterializeNs.Snapshot(),

		CommitBatchEvents: m.CommitBatchEvents.Snapshot(),
		FanoutBatchEvents: m.FanoutBatchEvents.Snapshot(),
		OutboxDepth:       m.OutboxDepth.Snapshot(),

		EventsApplied:  m.EventsApplied.Load(),
		BatchesApplied: m.BatchesApplied.Load(),
		PeersSevered:   m.PeersSevered.Load(),
		Evictions:      m.Evictions.Load(),
		ColdOpens:      m.ColdOpens.Load(),
		Compactions:    m.Compactions.Load(),
		FsyncErrors:    m.FsyncErrors.Load(),

		CoalescedFrames: m.CoalescedFrames.Load(),
		OutboxBytes:     m.OutboxBytes.Load(),
		ConnCount:       m.ConnCount.Load(),

		Resumes:        m.Resumes.Load(),
		FullSnapshots:  m.FullSnapshots.Load(),
		ResumeEvents:   m.ResumeEvents.Load(),
		SnapshotEvents: m.SnapshotEvents.Load(),

		BlockServes:          m.BlockServes.Load(),
		BlockServeEvents:     m.BlockServeEvents.Load(),
		LazyMaterializations: m.LazyMaterializations.Load(),
		ResumeFallbacks:      m.ResumeFallbacks.Load(),
		SummaryResumes:       m.SummaryResumes.Load(),

		ReplicaBatchesIn: m.ReplicaBatchesIn.Load(),
		ReplicaEventsIn:  m.ReplicaEventsIn.Load(),
		ReplicaExchanges: m.ReplicaExchanges.Load(),
		ReplicaEventsOut: m.ReplicaEventsOut.Load(),

		SectionsContinued:    m.SectionsContinued.Load(),
		SectionsRebuilt:      m.SectionsRebuilt.Load(),
		SilentReplayEvents:   m.SilentReplayEvents.Load(),
		RetainedTrackerItems: m.RetainedTrackerItems.Load(),

		ScrubPasses:    m.ScrubPasses.Load(),
		ScrubBytes:     m.ScrubBytes.Load(),
		CorruptBlocks:  m.CorruptBlocks.Load(),
		Repairs:        m.Repairs.Load(),
		RepairEvents:   m.RepairEvents.Load(),
		RepairFailures: m.RepairFailures.Load(),
		WALWriteErrors: m.WALWriteErrors.Load(),

		OpenDocs:             m.OpenDocs.Load(),
		Subscribers:          m.Subscribers.Load(),
		MaterializedDocs:     m.MaterializedDocs.Load(),
		MaterializedLogBytes: m.MaterializedLogBytes.Load(),
		QuarantinedDocs:      m.QuarantinedDocs.Load(),
	}
}

// Metrics returns the server's live metrics for instrumentation-aware
// callers (tests, embedded servers). Most callers want
// MetricsSnapshot.
func (s *Server) Metrics() *Metrics { return s.metrics }

// MetricsSnapshot captures the server's metrics as a JSON-ready value,
// including the uptime-derived sever_rate (severed peers per second
// since the server started).
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	snap := s.metrics.snapshot()
	if up := time.Since(s.started).Seconds(); up > 0 {
		snap.UptimeSec = up
		snap.SeverRate = float64(snap.PeersSevered) / up
	}
	return snap
}
