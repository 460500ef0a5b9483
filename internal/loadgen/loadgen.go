// Package loadgen is the load-driver core shared by cmd/egload (real
// TCP against a running egserve) and egbench's scale harness (in-memory
// connections against an in-process store.Server). It simulates fleets
// of collaborative-editing clients — paced writers, measuring
// subscribers, reconnect churners — against any transport a DialFunc
// can open, and measures what the paper's server story needs measured:
// send/deliver throughput and the client-observed fan-out latency
// distribution.
//
// Two additions take the harness from fixed-point runs to
// production-shape scaling curves:
//
//   - Schedules (internal/sched): instead of one constant per-writer
//     rate, a schedule drives the *aggregate* offered rate slot by slot
//     (ramp, sweep, burst). Each slot's send/deliver throughput and
//     fan-out p50/p95/p99 are recorded separately, and the knee — the
//     first slot where p99 blows past the SLO or deliveries fall behind
//     the offered load — is computed from the curve, not eyeballed.
//   - Connection scale: Conns multiplexes thousands of subscriber
//     connections over the document population (hot documents get more
//     subscribers under the Zipf mixes, mirroring how they get more
//     writers). Subscribers at this scale are lean — they decode and
//     account every delivered event but skip replica maintenance, so
//     the generator measures the server rather than its own CPU.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"egwalker"
	"egwalker/internal/metrics"
	"egwalker/internal/sched"
	"egwalker/internal/trace"
	"egwalker/netsync"
)

// DialFunc opens one serving connection for a document, resuming at
// summary (nil: a cold join). The catch-up arrives as the connection's
// first inbound frame unless the dialer already consumed it (cluster
// dialers must, to tell a serve from a redirect), in which case it is
// handed back in first with haveFirst true and the caller processes it
// before reading the connection.
type DialFunc func(docID string, summary egwalker.VersionSummary) (conn net.Conn, pc *netsync.PeerConn, first []egwalker.Event, haveFirst bool, err error)

// Dialer adapts a bare transport dial (TCP, bufconn, ...) into a
// DialFunc speaking the single-node doc-hello handshake.
func Dialer(dial func() (net.Conn, error)) DialFunc {
	return func(docID string, summary egwalker.VersionSummary) (net.Conn, *netsync.PeerConn, []egwalker.Event, bool, error) {
		conn, err := dial()
		if err != nil {
			return nil, nil, nil, false, err
		}
		pc := netsync.NewPeerConn(conn)
		if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: summary}); err != nil {
			conn.Close()
			return nil, nil, nil, false, err
		}
		return conn, pc, nil, false, nil
	}
}

// TCPDialer returns a DialFunc dialing one TCP address.
func TCPDialer(addr string) DialFunc {
	return Dialer(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	})
}

// MixSpec shapes one workload: how many writers edit each document,
// how they are distributed, how they type, and whether reconnect churn
// runs alongside.
type MixSpec struct {
	Name          string
	WritersPerDoc int
	Zipf          bool // assign writers (and extra conns) to documents by Zipf draw
	Churn         bool // run one resume-reconnect churner per document
	NewTypist     func(writer int) *trace.Typist
}

// MixByName builds the named standard mix. writersPerDoc feeds the
// multi-writer mixes (burst/trace/hotdoc); seed makes edit streams
// deterministic.
func MixByName(name string, writersPerDoc int, seed int64) (MixSpec, error) {
	plain := func(w int) *trace.Typist {
		return trace.NewTypist(trace.TypistOptions{Seed: seed + int64(w)})
	}
	switch name {
	case "seq":
		return MixSpec{Name: name, WritersPerDoc: 1, NewTypist: plain}, nil
	case "burst":
		return MixSpec{Name: name, WritersPerDoc: writersPerDoc, NewTypist: plain}, nil
	case "trace":
		return MixSpec{Name: name, WritersPerDoc: writersPerDoc, NewTypist: func(w int) *trace.Typist {
			return trace.TypistFromSpec(trace.C1, seed+int64(w))
		}}, nil
	case "resume":
		return MixSpec{Name: name, WritersPerDoc: 1, Churn: true, NewTypist: plain}, nil
	case "hotdoc":
		return MixSpec{Name: name, WritersPerDoc: writersPerDoc, Zipf: true, NewTypist: plain}, nil
	default:
		return MixSpec{}, fmt.Errorf("unknown mix %q (want seq, burst, trace, resume, hotdoc)", name)
	}
}

// Config is one load run.
type Config struct {
	Dial DialFunc
	Mix  MixSpec

	// Docs is the document population (default 1); DocPrefix namespaces
	// the IDs so every run gets fresh documents.
	Docs      int
	DocPrefix string

	// WritersTotal overrides the writer fleet size (default
	// Docs * Mix.WritersPerDoc). With Zipf document populations in the
	// thousands, writers-per-doc stops being the natural knob — the
	// fleet is sized absolutely and skewed onto the hot documents.
	WritersTotal int

	// Conns, when > 0, multiplexes that many subscriber connections
	// over the documents (at least one per document while they last,
	// the rest by the mix's distribution). When 0, each document gets
	// exactly one full-fidelity measuring subscriber (the classic
	// egload shape).
	Conns int

	// Rate is the constant per-writer events/second used when Schedule
	// is nil (the classic open-loop mode, run for Duration).
	Rate     float64
	Duration time.Duration

	// Schedule, when set, drives the aggregate offered rate
	// (events/second across the whole writer fleet) slot by slot;
	// SlotDur is each slot's wall-clock length (default 1s). The run
	// lasts NumSlots * SlotDur and Duration is ignored.
	Schedule *sched.Schedule
	SlotDur  time.Duration

	// Warmup, on scheduled runs, drives the first slot's rate for this
	// long before measurement begins: latency stamps are suppressed and
	// the slot counters baseline afterwards, so cold-start costs
	// (journal creation, LRU faults, allocator growth) don't masquerade
	// as a knee in slot 0.
	Warmup time.Duration

	// SLO and DeliverFloor parameterize knee detection on scheduled
	// runs: the knee is the first slot whose fan-out p99 exceeds SLO
	// (default 250ms) or where cumulative deliveries fall below
	// DeliverFloor (default 0.99) of what the sends so far should have
	// produced.
	SLO          time.Duration
	DeliverFloor float64

	// Seed makes writer placement and edit streams deterministic.
	Seed int64

	// Logf, when set, receives per-slot progress lines.
	Logf func(format string, args ...any)
}

// Result is one mix's report row. The field set and JSON names are the
// BENCH_server.json schema egload has always written; scheduled runs
// add the per-slot curve and the computed knee.
type Result struct {
	Name            string                    `json:"name"`
	DurationSec     float64                   `json:"duration_sec"`
	Docs            int                       `json:"docs"`
	Writers         int                       `json:"writers_total"`
	EventsSent      int64                     `json:"events_sent"`
	EventsDelivered int64                     `json:"events_delivered"`
	SendEPS         float64                   `json:"send_events_per_sec"`
	DeliverEPS      float64                   `json:"deliver_events_per_sec"`
	FanoutNs        metrics.HistogramSnapshot `json:"fanout_latency_ns"`
	SendStalls      int64                     `json:"send_stalls"`
	WriterErrors    int64                     `json:"writer_errors"`
	Undelivered     int64                     `json:"undelivered_at_drain"`
	Resume          *ResumeResult             `json:"resume,omitempty"`
	Cold            *ColdResult               `json:"cold,omitempty"`

	// Scheduled / connection-scale runs only.
	Conns              int          `json:"conns,omitempty"`
	Schedule           string       `json:"schedule,omitempty"`
	SlotSec            float64      `json:"slot_sec,omitempty"`
	ExpectedDeliveries int64        `json:"expected_deliveries,omitempty"`
	Slots              []SlotResult `json:"slots,omitempty"`
	Knee               *KneeResult  `json:"knee,omitempty"`
}

// SlotResult is one schedule slot's measurements. ExpectedDeliveries
// is events sent during the slot times the subscriber count of their
// documents — what a server keeping up would deliver; deliveries that
// slip into the next slot are attributed there, so per-slot ratios
// wobble at boundaries and the knee detector requires the shortfall to
// be real (see KneeResult).
type SlotResult struct {
	Slot               int                       `json:"slot"`
	TargetEPS          float64                   `json:"target_eps"`
	DurationSec        float64                   `json:"duration_sec"`
	EventsSent         int64                     `json:"events_sent"`
	Deliveries         int64                     `json:"deliveries"`
	ExpectedDeliveries int64                     `json:"expected_deliveries"`
	SendEPS            float64                   `json:"send_eps"`
	DeliverEPS         float64                   `json:"deliver_eps"`
	FanoutNs           metrics.HistogramSnapshot `json:"fanout_latency_ns"`
}

// KneeResult is the computed knee of a scheduled run: the first slot
// (with a non-zero target and at least one send) where the fan-out p99
// exceeded the SLO or cumulative deliveries fell below DeliverFloor of
// cumulative expected deliveries (cumulative so that per-slot boundary
// attribution wobble doesn't read as falling behind).
type KneeResult struct {
	Found        bool    `json:"found"`
	Slot         int     `json:"slot,omitempty"`
	TargetEPS    float64 `json:"target_eps,omitempty"`
	Reason       string  `json:"reason,omitempty"` // "p99_over_slo" | "deliver_behind"
	SLONs        int64   `json:"slo_ns"`
	DeliverFloor float64 `json:"deliver_floor"`
}

// ResumeResult summarizes the reconnect churners of the resume mix.
// CatchupLatencyNs is dial → first catch-up batch decoded;
// CatchupEventsTotal over Reconnects is the average transfer per
// reconnect, to compare against HistoryEventsTotal (what full-snapshot
// joins would have shipped every time).
type ResumeResult struct {
	Reconnects         int64                     `json:"reconnects"`
	DialErrors         int64                     `json:"dial_errors"`
	CatchupEventsTotal int64                     `json:"catchup_events_total"`
	HistoryEventsTotal int64                     `json:"history_events_total"`
	CatchupLatencyNs   metrics.HistogramSnapshot `json:"catchup_latency_ns"`
}

// ColdResult is the colddocs mix's extra report section: the cost of a
// cold compact join against a large population of write-mostly hosted
// documents. FirstFrameNs is dial → first catch-up frame decoded (what
// the zero-materialization serve path optimizes); CatchupNs is dial →
// the full history decoded client-side.
type ColdResult struct {
	Docs         int                       `json:"docs"`
	EventsPerDoc int                       `json:"events_per_doc"`
	PopulateSec  float64                   `json:"populate_sec"`
	Joins        int64                     `json:"joins"`
	JoinErrors   int64                     `json:"join_errors"`
	FirstFrameNs metrics.HistogramSnapshot `json:"first_frame_latency_ns"`
	CatchupNs    metrics.HistogramSnapshot `json:"catchup_latency_ns"`
}

// stamp is one sent event awaiting delivery observations: subscribers
// decrement refs (set to the document's subscriber count) so every
// delivery contributes a latency sample and the stamp is reclaimed by
// its last observer.
type stamp struct {
	t    time.Time
	refs atomic.Int32
}

// tracker matches events sent by writers with their arrivals at
// subscribers. The cumulative histogram spans the run; the slot
// pointer, when set, additionally collects into the current schedule
// slot's histogram (swapped at each slot boundary). While cold (the
// warm-up period) no stamps are created, so warm-up traffic flows but
// leaves no latency samples.
type tracker struct {
	m    sync.Map // egwalker.EventID -> *stamp
	hist metrics.Histogram
	slot atomic.Pointer[metrics.Histogram]
	cold atomic.Bool
}

func (t *tracker) stamp(id egwalker.EventID, refs int32) {
	if refs <= 0 || t.cold.Load() {
		return
	}
	s := &stamp{t: time.Now()}
	s.refs.Store(refs)
	t.m.Store(id, s)
}

func (t *tracker) observe(id egwalker.EventID) {
	v, ok := t.m.Load(id)
	if !ok {
		return
	}
	s := v.(*stamp)
	d := time.Since(s.t).Nanoseconds()
	t.hist.Observe(d)
	if h := t.slot.Load(); h != nil {
		h.Observe(d)
	}
	if s.refs.Add(-1) <= 0 {
		t.m.Delete(id)
	}
}

// rateVar is the writer fleet's shared pacing knob: the slot
// controller stores the current per-writer rate; writers poll it every
// edit (and while sleeping, so a slot transition reaches even writers
// parked in a long low-rate gap).
type rateVar struct{ bits atomic.Uint64 }

func (r *rateVar) set(perSec float64) { r.bits.Store(math.Float64bits(perSec)) }
func (r *rateVar) get() float64       { return math.Float64frombits(r.bits.Load()) }

// loadWriter is one simulated user: a replica, its connection, and the
// paced edit loop. mu serializes the edit loop against the inbound
// apply loop (an egwalker.Doc is not concurrency-safe).
type loadWriter struct {
	mu   sync.Mutex
	doc  *egwalker.Doc
	pc   *netsync.PeerConn
	conn net.Conn
	ty   *trace.Typist

	sent   *atomic.Int64 // per-doc sent counter, shared with the drain
	subs   int32         // subscribers of this writer's document (stamp refs)
	frac   float64       // this writer's phase in [0,1): staggers re-anchors across the fleet
	stalls atomic.Int64
	failed atomic.Bool
}

// run paces bursts on an absolute open-loop schedule: the next send
// time advances by burst/rate regardless of how long the send took, so
// a slow server shows up as schedule slip (stalls), not a silently
// reduced offered load. The writer waits for its send time BEFORE
// editing, and both the initial anchor and every rate re-anchor are
// phase-staggered by the writer's frac — without the stagger a slot
// boundary would fire the whole fleet's bursts at once, dwarfing low
// slot targets. A zero rate parks the writer until the trough ends.
func (w *loadWriter) run(lat *tracker, rv *rateVar, stop <-chan struct{}) {
	// meanBurst approximates a typist burst in events; it only sizes
	// the stagger window, not the steady rate.
	const meanBurst = 4.0
	perSec := rv.get()
	anchor := func(r float64) time.Time {
		return time.Now().Add(time.Duration(w.frac * meanBurst / r * float64(time.Second)))
	}
	var next time.Time
	if perSec > 0 {
		next = anchor(perSec)
	}
	for {
		// Wait for the send time, re-reading the shared rate in short
		// steps so a slot transition (to a much higher rate, or out of
		// a zero trough) reaches writers parked mid-gap.
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r := rv.get(); r != perSec {
				perSec = r
				if perSec > 0 {
					next = anchor(perSec)
				}
			}
			if perSec <= 0 {
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
				}
				continue
			}
			d := time.Until(next)
			if d <= 0 {
				break
			}
			if d > 20*time.Millisecond {
				d = 20 * time.Millisecond
			}
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		}
		w.mu.Lock()
		pre := w.doc.Version()
		e := w.ty.Next(w.doc.Len())
		var err error
		var n int
		if e.Delete {
			err = w.doc.Delete(e.Pos, e.Len)
			n = e.Len
		} else {
			err = w.doc.Insert(e.Pos, e.Text)
			n = len(e.Text)
		}
		var evs []egwalker.Event
		if err == nil {
			evs, err = w.doc.EventsSince(pre)
		}
		w.mu.Unlock()
		if err != nil {
			w.failed.Store(true)
			return
		}
		if len(evs) > 0 {
			lat.stamp(evs[len(evs)-1].ID, w.subs)
			if err := w.pc.SendEvents(evs); err != nil {
				w.failed.Store(true)
				return
			}
			w.sent.Add(int64(len(evs)))
		}
		next = next.Add(time.Duration(float64(n) / perSec * float64(time.Second)))
		if time.Until(next) <= 0 {
			w.stalls.Add(1)
			next = time.Now() // re-anchor so one long stall isn't counted forever
		}
	}
}

// inbound drains fan-out from the server (other writers' edits) so the
// writer's outbox never fills and its view stays current. It exits
// when the connection closes.
func (w *loadWriter) inbound() {
	for {
		evs, _, done, err := w.pc.Recv()
		if err != nil || done {
			return
		}
		w.mu.Lock()
		_, err = w.doc.Apply(evs)
		w.mu.Unlock()
		if err != nil {
			w.failed.Store(true)
			return
		}
	}
}

// loadReader is one measuring subscriber: it never writes, counts
// every delivered event into its document's shared counter, and
// resolves latency stamps. Full-fidelity readers (doc != nil) also
// maintain a replica; lean readers — the connection-scale mode — skip
// that so 10k subscribers measure the server, not the generator's own
// CPU.
type loadReader struct {
	doc       *egwalker.Doc
	pc        *netsync.PeerConn
	conn      net.Conn
	delivered *atomic.Int64 // per-doc delivered counter, shared across the doc's readers
}

func (r *loadReader) run(lat *tracker) {
	for {
		evs, _, done, err := r.pc.Recv()
		if err != nil || done {
			return
		}
		if err := r.absorb(evs, lat); err != nil {
			return
		}
	}
}

// absorb accounts for and applies one delivered batch (the run loop's
// body, also used for a catch-up frame the cluster dialer consumed).
func (r *loadReader) absorb(evs []egwalker.Event, lat *tracker) error {
	for _, ev := range evs {
		lat.observe(ev.ID)
	}
	r.delivered.Add(int64(len(evs)))
	if r.doc == nil {
		return nil
	}
	_, err := r.doc.Apply(evs)
	return err
}

// churner models a flaky client: it repeatedly connects with a hello
// carrying its current version summary, measures the catch-up, lingers
// briefly on the live feed, and drops the connection.
func churner(dial DialFunc, docID string, agent string, res *resumeAgg, stop <-chan struct{}) {
	doc := egwalker.NewDoc(agent)
	for {
		select {
		case <-stop:
			return
		default:
		}
		start := time.Now()
		conn, pc, first, haveFirst, err := dial(docID, doc.Summary())
		if err != nil {
			res.dialErrors.Add(1)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		// Bound the whole reconnect: a stalled server must not wedge
		// the churner past the mix's stop signal.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		{
			// The first frame is the catch-up (live batches follow) —
			// already consumed by the cluster dialer, or read here. A
			// catch-up over 64k events would span frames; churn cadences
			// keep it far below that.
			evs, done, rerr := first, false, error(nil)
			if !haveFirst {
				evs, _, done, rerr = pc.Recv()
			}
			if rerr == nil && !done {
				res.catchupNs.Observe(time.Since(start).Nanoseconds())
				res.reconnects.Add(1)
				res.catchupEvents.Add(int64(len(evs)))
				if _, aerr := doc.Apply(evs); aerr == nil {
					// Linger on the live feed, then sever abruptly.
					conn.SetReadDeadline(time.Now().Add(80 * time.Millisecond))
					for {
						evs, _, done, err := pc.Recv()
						if err != nil || done {
							break
						}
						if _, err := doc.Apply(evs); err != nil {
							break
						}
					}
				}
			}
		}
		conn.Close()
		select {
		case <-stop:
			return
		case <-time.After(40 * time.Millisecond):
		}
	}
}

type resumeAgg struct {
	reconnects    atomic.Int64
	dialErrors    atomic.Int64
	catchupEvents atomic.Int64
	catchupNs     metrics.Histogram
}

// Run executes one load run per the config and reports its
// measurements. Setup order matters: subscribers connect first, so
// every event a writer sends is fanned out to a measuring reader.
func Run(cfg Config) (Result, error) {
	if cfg.Dial == nil {
		return Result{}, fmt.Errorf("loadgen: Config.Dial is required")
	}
	if cfg.Docs <= 0 {
		cfg.Docs = 1
	}
	if cfg.SlotDur <= 0 {
		cfg.SlotDur = time.Second
	}
	if cfg.SLO <= 0 {
		cfg.SLO = 250 * time.Millisecond
	}
	if cfg.DeliverFloor <= 0 {
		cfg.DeliverFloor = 0.99
	}
	spec := cfg.Mix
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	lat := &tracker{}
	if cfg.Schedule != nil && cfg.Warmup > 0 {
		lat.cold.Store(true)
	}
	docIDs := make([]string, cfg.Docs)
	for i := range docIDs {
		docIDs[i] = fmt.Sprintf("%s/%s/doc-%05d", cfg.DocPrefix, spec.Name, i)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if spec.Zipf && cfg.Docs > 1 {
		zipf = rand.NewZipf(rng, 1.4, 1, uint64(cfg.Docs-1))
	}

	// Subscriber placement. Classic mode: one full-fidelity reader per
	// document. Connection-scale mode (Conns > 0): lean readers, one
	// per document while they last, the rest skewed like the writers —
	// hot documents get the fan-out amplification production gives
	// them.
	nConns := cfg.Conns
	lean := nConns > 0
	if !lean {
		nConns = cfg.Docs
	}
	readerDoc := make([]int, nConns)
	for i := range readerDoc {
		switch {
		case i < cfg.Docs:
			readerDoc[i] = i
		case zipf != nil:
			readerDoc[i] = int(zipf.Uint64())
		default:
			readerDoc[i] = i % cfg.Docs
		}
	}
	subsPerDoc := make([]int32, cfg.Docs)
	for _, di := range readerDoc {
		subsPerDoc[di]++
	}

	deliveredPerDoc := make([]atomic.Int64, cfg.Docs)
	readers := make([]*loadReader, 0, nConns)
	var readerWG sync.WaitGroup
	closeAll := func() {
		for _, r := range readers {
			r.conn.Close()
		}
	}
	for i, di := range readerDoc {
		conn, pc, first, haveFirst, err := cfg.Dial(docIDs[di], nil)
		if err != nil {
			closeAll()
			return Result{}, fmt.Errorf("dialing subscriber %d for %s: %w", i, docIDs[di], err)
		}
		r := &loadReader{pc: pc, conn: conn, delivered: &deliveredPerDoc[di]}
		if !lean {
			r.doc = egwalker.NewDoc(fmt.Sprintf("rd-%s-%d", spec.Name, i))
		}
		if haveFirst {
			if err := r.absorb(first, lat); err != nil {
				conn.Close()
				closeAll()
				return Result{}, err
			}
		}
		readers = append(readers, r)
		readerWG.Add(1)
		go func() { defer readerWG.Done(); r.run(lat) }()
	}

	// Writers: a fixed fleet (WritersTotal, or Docs * WritersPerDoc),
	// round-robin across documents or Zipf-skewed so a few documents
	// take most of the load.
	total := cfg.WritersTotal
	if total <= 0 {
		total = cfg.Docs * spec.WritersPerDoc
	}
	if total <= 0 {
		total = cfg.Docs
	}
	rv := &rateVar{}
	if cfg.Schedule != nil {
		rv.set(cfg.Schedule.Rate(0) / float64(total))
	} else {
		rv.set(cfg.Rate)
	}
	sentPerDoc := make([]atomic.Int64, cfg.Docs)
	ws := make([]*loadWriter, 0, total)
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	for i := 0; i < total; i++ {
		di := i % cfg.Docs
		if zipf != nil {
			di = int(zipf.Uint64())
		}
		conn, pc, first, haveFirst, err := cfg.Dial(docIDs[di], nil)
		if err != nil {
			close(stop)
			closeAll()
			return Result{}, fmt.Errorf("dialing writer %d: %w", i, err)
		}
		w := &loadWriter{
			doc:  egwalker.NewDoc(fmt.Sprintf("w-%s-%d", spec.Name, i)),
			pc:   pc,
			conn: conn,
			ty:   spec.NewTypist(i),
			sent: &sentPerDoc[di],
			subs: subsPerDoc[di],
			frac: float64(i) / float64(total),
		}
		if haveFirst && len(first) > 0 {
			if _, err := w.doc.Apply(first); err != nil {
				conn.Close()
				close(stop)
				closeAll()
				return Result{}, err
			}
		}
		ws = append(ws, w)
		go w.inbound()
		writerWG.Add(1)
		go func() { defer writerWG.Done(); w.run(lat, rv, stop) }()
	}

	var churnWG sync.WaitGroup
	var res *resumeAgg
	if spec.Churn {
		res = &resumeAgg{}
		for i, id := range docIDs {
			churnWG.Add(1)
			go func(id string, i int) {
				defer churnWG.Done()
				churner(cfg.Dial, id, fmt.Sprintf("ch-%s-%d", spec.Name, i), res, stop)
			}(id, i)
		}
	}

	// The run itself: a fixed-duration soak, or the schedule's slots.
	var slots []SlotResult
	start := time.Now()
	if cfg.Schedule == nil {
		time.Sleep(cfg.Duration)
	} else {
		if cfg.Warmup > 0 {
			// Writers are already pacing at the first slot's rate;
			// let the server absorb the cold start, then begin
			// measuring from the post-warm-up counter values.
			time.Sleep(cfg.Warmup)
			lat.cold.Store(false)
		}
		lastSent := make([]int64, cfg.Docs)
		var lastDelivered int64
		for d := range sentPerDoc {
			lastSent[d] = sentPerDoc[d].Load()
		}
		for d := range deliveredPerDoc {
			lastDelivered += deliveredPerDoc[d].Load()
		}
		for slot := 0; slot < cfg.Schedule.NumSlots(); slot++ {
			target := cfg.Schedule.Rate(slot)
			rv.set(target / float64(total))
			slotHist := &metrics.Histogram{}
			lat.slot.Store(slotHist)
			slotStart := time.Now()
			time.Sleep(cfg.SlotDur)
			dur := time.Since(slotStart)

			var sentDelta, expDelta int64
			for d := range sentPerDoc {
				s := sentPerDoc[d].Load()
				sentDelta += s - lastSent[d]
				expDelta += (s - lastSent[d]) * int64(subsPerDoc[d])
				lastSent[d] = s
			}
			var delivered int64
			for d := range deliveredPerDoc {
				delivered += deliveredPerDoc[d].Load()
			}
			delDelta := delivered - lastDelivered
			lastDelivered = delivered

			sr := SlotResult{
				Slot:               slot,
				TargetEPS:          target,
				DurationSec:        dur.Seconds(),
				EventsSent:         sentDelta,
				Deliveries:         delDelta,
				ExpectedDeliveries: expDelta,
				SendEPS:            float64(sentDelta) / dur.Seconds(),
				DeliverEPS:         float64(delDelta) / dur.Seconds(),
				FanoutNs:           slotHist.Snapshot(),
			}
			slots = append(slots, sr)
			logf("slot %d/%d: target=%.0f ev/s sent=%d delivered=%d/%d p99=%s",
				slot+1, cfg.Schedule.NumSlots(), target, sentDelta, delDelta, expDelta,
				time.Duration(sr.FanoutNs.P99))
		}
		lat.slot.Store(nil)
	}
	close(stop)
	writerWG.Wait()
	churnWG.Wait()
	elapsed := time.Since(start)

	// Drain: the fan-out pipeline may still be flushing; give the
	// subscribers a bounded window to catch up with what was sent to
	// their documents (sent × subscribers per document).
	deadline := time.Now().Add(5 * time.Second)
	var sent, expected, delivered, undelivered int64
	for {
		sent, expected, delivered, undelivered = 0, 0, 0, 0
		for d := range sentPerDoc {
			s := sentPerDoc[d].Load()
			del := deliveredPerDoc[d].Load()
			exp := s * int64(subsPerDoc[d])
			sent += s
			expected += exp
			delivered += del
			if del < exp {
				undelivered += exp - del
			}
		}
		if undelivered == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, w := range ws {
		w.conn.Close()
	}
	closeAll()
	readerWG.Wait()

	result := Result{
		Name:               spec.Name,
		DurationSec:        elapsed.Seconds(),
		Docs:               cfg.Docs,
		Writers:            total,
		EventsSent:         sent,
		EventsDelivered:    delivered,
		SendEPS:            float64(sent) / elapsed.Seconds(),
		DeliverEPS:         float64(delivered) / elapsed.Seconds(),
		FanoutNs:           lat.hist.Snapshot(),
		Undelivered:        undelivered,
		ExpectedDeliveries: expected,
	}
	if cfg.Conns > 0 {
		result.Conns = cfg.Conns
	}
	if cfg.Schedule != nil {
		result.Schedule = cfg.Schedule.Spec()
		result.SlotSec = cfg.SlotDur.Seconds()
		result.Slots = slots
		result.Knee = ComputeKnee(slots, cfg.SLO, cfg.DeliverFloor)
	}
	for _, w := range ws {
		result.SendStalls += w.stalls.Load()
		if w.failed.Load() {
			result.WriterErrors++
		}
	}
	if res != nil {
		var history int64
		if lean {
			// Lean readers keep no replica; the documents started empty,
			// so everything sent is the history.
			history = sent
		} else {
			for _, r := range readers {
				history += int64(r.doc.NumEvents())
			}
		}
		result.Resume = &ResumeResult{
			Reconnects:         res.reconnects.Load(),
			DialErrors:         res.dialErrors.Load(),
			CatchupEventsTotal: res.catchupEvents.Load(),
			HistoryEventsTotal: history,
			CatchupLatencyNs:   res.catchupNs.Snapshot(),
		}
	}
	return result, nil
}

// ComputeKnee scans a scheduled run's slots for the first one (with a
// non-zero target and at least one send) violating the latency SLO or
// the delivery floor.
func ComputeKnee(slots []SlotResult, slo time.Duration, floor float64) *KneeResult {
	k := &KneeResult{SLONs: slo.Nanoseconds(), DeliverFloor: floor}
	// The delivery check is cumulative AND allows an SLO's worth of
	// in-flight backlog. Deliveries are attributed to the slot they
	// arrive in, so even a keeping-up server's cumulative deliveries lag
	// its cumulative sends by roughly deliver-rate x fan-out-latency at
	// every boundary; per-slot ratios wobble and the cumulative ratio
	// dips while the denominator is small. A deficit only means
	// "behind" once it exceeds what an SLO-latency pipeline would hold
	// in flight — any larger backlog implies deliveries are lagging by
	// more than the SLO itself.
	var cumExpected, cumDelivered int64
	for _, s := range slots {
		cumExpected += s.ExpectedDeliveries
		cumDelivered += s.Deliveries
		if s.TargetEPS <= 0 || s.EventsSent == 0 {
			continue
		}
		var inflight float64
		if s.DurationSec > 0 {
			inflight = float64(s.ExpectedDeliveries) / s.DurationSec * slo.Seconds()
		}
		deficit := float64(cumExpected - cumDelivered)
		switch {
		case s.FanoutNs.Count > 0 && s.FanoutNs.P99 > slo.Nanoseconds():
			k.Found, k.Slot, k.TargetEPS, k.Reason = true, s.Slot, s.TargetEPS, "p99_over_slo"
			return k
		case cumExpected > 0 && float64(cumDelivered) < floor*float64(cumExpected) && deficit > inflight:
			k.Found, k.Slot, k.TargetEPS, k.Reason = true, s.Slot, s.TargetEPS, "deliver_behind"
			return k
		}
	}
	return k
}
