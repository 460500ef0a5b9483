package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"egwalker/internal/bufconn"
	"egwalker/internal/loadgen"
	"egwalker/internal/sched"
	"egwalker/store"
)

// The scale subcommand is the committed connection-scale baseline
// (BENCH_scale.json): how deliver throughput and client-observed
// fan-out latency hold up as connection count grows, and where the
// knee is as offered load ramps over a large Zipf document population.
// Connections are in-memory (internal/bufconn) so ten thousand of them
// fit one process with zero file descriptors; the server under test is
// a real store.Server with the byte-budgeted outbox path, and each
// point samples its peak global outbox ledger and heap so the memory
// bound is part of the baseline, not folklore. Usage:
//
//	egbench scale [-scale-conns 100,1000,5000,10000] [-scale-eps 1200]
//	              [-scale-writers 64] [-scale-slots 4]
//	              [-scale-ramp ramp:300:3000:300] [-scale-ramp-docs 5000]
//	              [-scale-ramp-conns 1000] [-scale-slot 1s] [-scale-warmup 2s]
//	              [-scale-outbox-peer 1048576] [-scale-outbox-total 268435456]
//	              [-scale-out BENCH_scale.json]
var (
	scConns       = flags.String("scale-conns", "100,1000,5000,10000", "connection counts for the sweep (comma-separated)")
	scEPS         = flags.Float64("scale-eps", 1200, "aggregate offered events/second during the connection sweep")
	scWriters     = flags.Int("scale-writers", 64, "writer fleet size")
	scSlots       = flags.Int("scale-slots", 4, "measurement slots per connection-sweep point")
	scRamp        = flags.String("scale-ramp", "ramp:300:3000:300", "offered-rate schedule for the Zipf-population ramp")
	scRampDocs    = flags.Int("scale-ramp-docs", 5000, "document population for the ramp (writers Zipf-skewed)")
	scRampConns   = flags.Int("scale-ramp-conns", 1000, "subscriber connections during the ramp")
	scSlotDur     = flags.Duration("scale-slot", time.Second, "wall-clock length of one schedule slot")
	scWarmup      = flags.Duration("scale-warmup", 2*time.Second, "unmeasured warm-up at the first slot's rate before each run")
	scSLO         = flags.Duration("scale-slo", 250*time.Millisecond, "fan-out p99 SLO for knee detection")
	scOutboxPeer  = flags.Int64("scale-outbox-peer", 1<<20, "per-peer outbox byte budget for the server under test")
	scOutboxTotal = flags.Int64("scale-outbox-total", 256<<20, "server-wide outbox byte cap for the server under test")
	scOut         = flags.String("scale-out", "BENCH_scale.json", "report path")
)

// scaleReport is the BENCH_scale.json schema.
type scaleReport struct {
	Schema      string           `json:"schema"`
	GeneratedAt string           `json:"generated_at"`
	Config      scaleBenchConfig `json:"config"`
	ConnCurve   []scalePoint     `json:"conn_curve"`
	Ramp        *scaleRamp       `json:"ramp,omitempty"`
}

type scaleBenchConfig struct {
	SweepEPS         float64 `json:"sweep_aggregate_eps"`
	Writers          int     `json:"writers_total"`
	SlotSec          float64 `json:"slot_sec"`
	SLONs            int64   `json:"slo_ns"`
	OutboxBytesPeer  int64   `json:"outbox_bytes_per_peer"`
	OutboxBytesTotal int64   `json:"outbox_bytes_total"`
}

// scalePoint is one connection-sweep measurement: a fresh server, N
// subscriber connections, a steady offered rate. DeliverSendRatio is
// deliveries over what the sends should have produced (1.0 = the
// server kept up); OutboxBounded asserts the sampled peak of the
// global outbox ledger never passed the configured cap — the memory
// bound the byte-budgeted outboxes exist to enforce.
type scalePoint struct {
	Conns            int            `json:"conns"`
	Docs             int            `json:"docs"`
	TargetEPS        float64        `json:"target_eps"`
	DeliverSendRatio float64        `json:"deliver_send_ratio"`
	FanoutP50Ns      int64          `json:"fanout_p50_ns"`
	FanoutP99Ns      int64          `json:"fanout_p99_ns"`
	PeakOutboxBytes  int64          `json:"peak_outbox_bytes"`
	PeakHeapInuse    uint64         `json:"peak_heap_inuse_bytes"`
	PeakConnCount    int64          `json:"peak_conn_count"`
	OutboxBounded    bool           `json:"outbox_bounded"`
	PeersSevered     int64          `json:"peers_severed"`
	CoalescedFrames  int64          `json:"coalesced_frames"`
	Result           loadgen.Result `json:"result"`
}

// scaleRamp is the offered-load ramp over a large Zipf population: the
// full per-slot curve plus the computed knee.
type scaleRamp struct {
	Docs            int                 `json:"docs"`
	Conns           int                 `json:"conns"`
	Schedule        string              `json:"schedule"`
	Knee            *loadgen.KneeResult `json:"knee"`
	PeakOutboxBytes int64               `json:"peak_outbox_bytes"`
	PeakHeapInuse   uint64              `json:"peak_heap_inuse_bytes"`
	OutboxBounded   bool                `json:"outbox_bounded"`
	PeersSevered    int64               `json:"peers_severed"`
	CoalescedFrames int64               `json:"coalesced_frames"`
	Result          loadgen.Result      `json:"result"`
}

// scaleSampler polls the server's outbox ledger and connection gauge
// (cheap atomics, every 20ms) and the runtime heap (stop-the-world
// ReadMemStats, every 200ms) for their peaks during a run.
type scaleSampler struct {
	srv        *store.Server
	stop       chan struct{}
	done       chan struct{}
	peakOutbox atomic.Int64
	peakConns  atomic.Int64
	peakHeap   atomic.Uint64
}

func startSampler(srv *store.Server) *scaleSampler {
	sm := &scaleSampler{srv: srv, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		var sinceHeap int
		for {
			select {
			case <-sm.stop:
				return
			case <-t.C:
				m := srv.Metrics()
				if b := m.OutboxBytes.Load(); b > sm.peakOutbox.Load() {
					sm.peakOutbox.Store(b)
				}
				if c := m.ConnCount.Load(); c > sm.peakConns.Load() {
					sm.peakConns.Store(c)
				}
				if sinceHeap++; sinceHeap >= 10 {
					sinceHeap = 0
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					if ms.HeapInuse > sm.peakHeap.Load() {
						sm.peakHeap.Store(ms.HeapInuse)
					}
				}
			}
		}
	}()
	return sm
}

func (sm *scaleSampler) halt() {
	close(sm.stop)
	<-sm.done
}

// scaleServer stands up a fresh store.Server on an in-memory listener
// and returns it with its dial function and a teardown.
func scaleServer(dir string) (*store.Server, *bufconn.Listener, func(), error) {
	srv, err := store.NewServer(dir, store.ServerOptions{
		FlushInterval:      2 * time.Millisecond,
		OutboxBytesPerPeer: *scOutboxPeer,
		OutboxBytesTotal:   *scOutboxTotal,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ln := bufconn.Listen(64 << 10)
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				srv.ServeConn(c)
			}()
		}
	}()
	teardown := func() {
		ln.Close()
		<-accepted
		srv.Close()
	}
	return srv, ln, teardown, nil
}

func runScale() error {
	rep := scaleReport{
		Schema:      "egbench-scale/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Config: scaleBenchConfig{
			SweepEPS:         *scEPS,
			Writers:          *scWriters,
			SlotSec:          scSlotDur.Seconds(),
			SLONs:            scSLO.Nanoseconds(),
			OutboxBytesPeer:  *scOutboxPeer,
			OutboxBytesTotal: *scOutboxTotal,
		},
	}

	var connCounts []int
	for _, f := range strings.Split(*scConns, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -scale-conns entry %q", f)
		}
		connCounts = append(connCounts, n)
	}

	steady, err := sched.Steady(*scEPS, *scSlots)
	if err != nil {
		return err
	}
	for _, conns := range connCounts {
		pt, err := runScalePoint(conns, steady)
		if err != nil {
			return err
		}
		rep.ConnCurve = append(rep.ConnCurve, pt)
	}

	if *scRamp != "" {
		ramp, err := runScaleRamp()
		if err != nil {
			return err
		}
		rep.Ramp = ramp
	}

	f, err := os.Create(*scOut)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err == nil {
		err = f.Close()
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "egbench: wrote %s (%d sweep points)\n", *scOut, len(rep.ConnCurve))
	return nil
}

// runScalePoint measures one connection-sweep point on a fresh server:
// conns subscribers round-robin over conns/10 documents (at least one,
// at most 1000), a fixed writer fleet, a steady aggregate rate.
func runScalePoint(conns int, steady *sched.Schedule) (scalePoint, error) {
	docs := conns / 10
	if docs < 1 {
		docs = 1
	}
	if docs > 1000 {
		docs = 1000
	}
	dir, err := os.MkdirTemp("", "egbench-scale-*")
	if err != nil {
		return scalePoint{}, err
	}
	defer os.RemoveAll(dir)
	srv, ln, teardown, err := scaleServer(dir)
	if err != nil {
		return scalePoint{}, err
	}
	defer teardown()
	sm := startSampler(srv)

	fmt.Fprintf(stderr, "egbench: scale: %d conns over %d docs at %.0f ev/s...\n", conns, docs, *scEPS)
	spec, err := loadgen.MixByName("seq", 1, 1)
	if err != nil {
		return scalePoint{}, err
	}
	res, err := loadgen.Run(loadgen.Config{
		Dial:         loadgen.Dialer(func() (net.Conn, error) { return ln.Dial() }),
		Mix:          spec,
		Docs:         docs,
		DocPrefix:    fmt.Sprintf("scale-%d", conns),
		WritersTotal: *scWriters,
		Conns:        conns,
		Schedule:     steady,
		SlotDur:      *scSlotDur,
		Warmup:       *scWarmup,
		SLO:          *scSLO,
		Seed:         1,
	})
	sm.halt()
	if err != nil {
		return scalePoint{}, err
	}
	snap := srv.MetricsSnapshot()
	pt := scalePoint{
		Conns:           conns,
		Docs:            docs,
		TargetEPS:       *scEPS,
		FanoutP50Ns:     res.FanoutNs.P50,
		FanoutP99Ns:     res.FanoutNs.P99,
		PeakOutboxBytes: sm.peakOutbox.Load(),
		PeakHeapInuse:   sm.peakHeap.Load(),
		PeakConnCount:   sm.peakConns.Load(),
		OutboxBounded:   sm.peakOutbox.Load() <= *scOutboxTotal,
		PeersSevered:    snap.PeersSevered,
		CoalescedFrames: snap.CoalescedFrames,
		Result:          res,
	}
	if res.ExpectedDeliveries > 0 {
		pt.DeliverSendRatio = float64(res.EventsDelivered) / float64(res.ExpectedDeliveries)
	}
	fmt.Fprintf(stderr, "egbench: scale: %d conns: deliver/send %.3f, p99 %s, peak outbox %d B\n",
		conns, pt.DeliverSendRatio, time.Duration(pt.FanoutP99Ns), pt.PeakOutboxBytes)
	return pt, nil
}

// runScaleRamp ramps the offered rate over a large Zipf population
// (writers skewed onto hot documents) and reports the knee.
func runScaleRamp() (*scaleRamp, error) {
	schedule, err := sched.Parse(*scRamp)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "egbench-scale-ramp-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, ln, teardown, err := scaleServer(dir)
	if err != nil {
		return nil, err
	}
	defer teardown()
	sm := startSampler(srv)

	fmt.Fprintf(stderr, "egbench: scale: ramp %s over %d Zipf docs, %d conns...\n", schedule.Spec(), *scRampDocs, *scRampConns)
	spec, err := loadgen.MixByName("hotdoc", 1, 1)
	if err != nil {
		return nil, err
	}
	res, err := loadgen.Run(loadgen.Config{
		Dial:         loadgen.Dialer(func() (net.Conn, error) { return ln.Dial() }),
		Mix:          spec,
		Docs:         *scRampDocs,
		DocPrefix:    "scale-ramp",
		WritersTotal: *scWriters,
		Conns:        *scRampConns,
		Schedule:     schedule,
		SlotDur:      *scSlotDur,
		Warmup:       *scWarmup,
		SLO:          *scSLO,
		Seed:         1,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "egbench: scale: "+format+"\n", args...)
		},
	})
	sm.halt()
	if err != nil {
		return nil, err
	}
	snap := srv.MetricsSnapshot()
	ramp := &scaleRamp{
		Docs:            *scRampDocs,
		Conns:           *scRampConns,
		Schedule:        schedule.Spec(),
		Knee:            res.Knee,
		PeakOutboxBytes: sm.peakOutbox.Load(),
		PeakHeapInuse:   sm.peakHeap.Load(),
		OutboxBounded:   sm.peakOutbox.Load() <= *scOutboxTotal,
		PeersSevered:    snap.PeersSevered,
		CoalescedFrames: snap.CoalescedFrames,
		Result:          res,
	}
	if res.Knee != nil && res.Knee.Found {
		fmt.Fprintf(stderr, "egbench: scale: knee at slot %d (target %.0f ev/s, %s)\n",
			res.Knee.Slot, res.Knee.TargetEPS, res.Knee.Reason)
	} else {
		fmt.Fprintln(stderr, "egbench: scale: no knee within the schedule")
	}
	return ramp, nil
}
