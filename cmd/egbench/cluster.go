package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"egwalker"
	"egwalker/cluster"
	"egwalker/internal/metrics"
	"egwalker/netsync"
	"egwalker/store"
)

// The cluster subcommand benchmarks the replication layer (package
// cluster): deliver throughput and client-observed fan-out latency on
// a single node versus a 3-node replica group (same machine, real
// TCP), plus the cost of losing a node — writers fail over mid-run and
// the killed node's rejoin convergence is timed. Results land in
// BENCH_cluster.json. Usage:
//
//	egbench cluster [-cluster-docs 4] [-cluster-writers 2] [-cluster-rate 200]
//	                [-cluster-duration 4s] [-cluster-out BENCH_cluster.json]
var (
	clDocs     = flag.Int("cluster-docs", 4, "documents per run")
	clWriters  = flag.Int("cluster-writers", 2, "writers per document")
	clRate     = flag.Float64("cluster-rate", 200, "target events/second per writer")
	clDuration = flag.Duration("cluster-duration", 4*time.Second, "write phase length per run")
	clOut      = flag.String("cluster-out", "BENCH_cluster.json", "report path")
)

// clusterReport is the BENCH_cluster.json schema.
type clusterReport struct {
	Schema      string             `json:"schema"`
	GeneratedAt string             `json:"generated_at"`
	Config      clusterBenchConfig `json:"config"`
	Runs        []clusterRunResult `json:"runs"`
	KillOneNode *killResult        `json:"kill_one_node"`
}

type clusterBenchConfig struct {
	Docs        int     `json:"docs"`
	Writers     int     `json:"writers_per_doc"`
	RateEPS     float64 `json:"target_rate_events_per_sec_per_writer"`
	DurationSec float64 `json:"duration_sec"`
}

type clusterRunResult struct {
	Nodes           int                       `json:"nodes"`
	Replicas        int                       `json:"replicas"`
	EventsSent      int64                     `json:"events_sent"`
	EventsDelivered int64                     `json:"events_delivered"`
	DeliverEPS      float64                   `json:"deliver_events_per_sec"`
	FanoutNs        metrics.HistogramSnapshot `json:"fanout_latency_ns"`
}

type killResult struct {
	Nodes                  int     `json:"nodes"`
	KilledAfterSec         float64 `json:"killed_after_sec"`
	EventsSent             int64   `json:"events_sent"`
	WriterReconnects       int64   `json:"writer_reconnects"`
	SurvivorConvergeSec    float64 `json:"survivor_converge_sec"`
	RejoinConvergeSec      float64 `json:"rejoin_converge_sec"`
	ConvergedEvents        int     `json:"converged_events_total"`
	LastDocFingerprint     string  `json:"last_doc_fingerprint"`
	DeliveredDuringFailure int64   `json:"events_delivered"`
}

// benchNode is one in-process cluster member: node, listener, and the
// accepted connections a kill must sever (peers detect the failure by
// their replica links dying, exactly as with a real process kill).
type benchNode struct {
	addr  string
	root  string
	peers []string

	mu    sync.Mutex
	ln    net.Listener
	node  *cluster.Node
	conns map[net.Conn]bool
	up    bool
}

func (bn *benchNode) start(ln net.Listener) error {
	node, err := cluster.NewNode(bn.root, store.ServerOptions{FlushInterval: 5 * time.Millisecond}, cluster.Options{
		Self:             bn.addr,
		Peers:            bn.peers,
		Replication:      len(bn.peers),
		GracePeriod:      500 * time.Millisecond,
		AntiEntropyEvery: 250 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	bn.mu.Lock()
	bn.ln, bn.node, bn.up = ln, node, true
	bn.conns = make(map[net.Conn]bool)
	bn.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			bn.mu.Lock()
			if !bn.up {
				bn.mu.Unlock()
				c.Close()
				return
			}
			bn.conns[c] = true
			bn.mu.Unlock()
			go func() {
				node.ServeConn(c)
				c.Close()
				bn.mu.Lock()
				delete(bn.conns, c)
				bn.mu.Unlock()
			}()
		}
	}()
	return nil
}

func (bn *benchNode) kill() {
	bn.mu.Lock()
	if !bn.up {
		bn.mu.Unlock()
		return
	}
	bn.up = false
	bn.ln.Close()
	for c := range bn.conns {
		c.Close()
	}
	bn.conns = nil
	node := bn.node
	bn.mu.Unlock()
	node.Close()
}

func (bn *benchNode) restart() error {
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		ln, err = net.Listen("tcp", bn.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rebind %s: %w", bn.addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return bn.start(ln)
}

func (bn *benchNode) docState(docID string) (fp uint64, events int, err error) {
	bn.mu.Lock()
	node, up := bn.node, bn.up
	bn.mu.Unlock()
	if !up {
		return 0, 0, fmt.Errorf("node %s down", bn.addr)
	}
	err = node.Server().With(docID, func(ds *store.DocStore) error {
		events = ds.NumEvents()
		var err error
		fp, err = ds.Fingerprint()
		return err
	})
	return fp, events, err
}

func startBenchCluster(n int, root string) ([]*benchNode, []string, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*benchNode, n)
	for i := range lns {
		nodes[i] = &benchNode{
			addr:  addrs[i],
			root:  fmt.Sprintf("%s/node%d", root, i),
			peers: addrs,
		}
		if err := nodes[i].start(lns[i]); err != nil {
			return nil, nil, err
		}
	}
	return nodes, addrs, nil
}

// latTracker matches a batch's tail event ID stamped at send time with
// its arrival at the per-document reader (one process, one clock).
type latTracker struct {
	m    sync.Map // egwalker.EventID -> time.Time
	hist metrics.Histogram
}

// benchWriter edits one document at an open-loop rate through the
// cluster's routing layer, reconnecting (with a full-history re-push)
// when its serving node dies.
type benchWriter struct {
	docID  string
	dialer *cluster.Dialer
	rng    *rand.Rand

	mu  sync.Mutex
	doc *egwalker.Doc

	sent       atomic.Int64
	reconnects atomic.Int64
}

func (w *benchWriter) connect() (*cluster.Conn, error) {
	w.mu.Lock()
	summary := w.doc.Summary()
	history := w.doc.Events()
	w.mu.Unlock()
	conn, first, err := w.dialer.ConnectServing(w.docID, summary)
	if err != nil {
		return nil, err
	}
	if first.Kind == netsync.FrameEvents && len(first.Events) > 0 {
		w.mu.Lock()
		_, err = w.doc.Apply(first.Events)
		w.mu.Unlock()
		if err != nil {
			conn.Close()
			return nil, err
		}
	}
	if err := conn.Peer.SendEvents(history); err != nil {
		conn.Close()
		return nil, err
	}
	go func() { // drain fan-out so the server never sees us as slow
		for {
			f, err := conn.Peer.RecvFrame()
			if err != nil {
				return
			}
			if f.Kind != netsync.FrameEvents {
				continue
			}
			w.mu.Lock()
			w.doc.Apply(f.Events)
			w.mu.Unlock()
		}
	}()
	return conn, nil
}

func (w *benchWriter) connectRetry() (*cluster.Conn, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := w.connect()
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (w *benchWriter) run(lat *latTracker, stop <-chan struct{}) error {
	conn, err := w.connectRetry()
	if err != nil {
		return err
	}
	defer func() { conn.Close() }()
	next := time.Now()
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		w.mu.Lock()
		pre := w.doc.Version()
		n := 0
		burst := 1 + w.rng.Intn(4)
		for i := 0; i < burst; i++ {
			word := make([]byte, 1+w.rng.Intn(6))
			for j := range word {
				word[j] = byte('a' + w.rng.Intn(26))
			}
			if err := w.doc.Insert(w.rng.Intn(w.doc.Len()+1), string(word)); err != nil {
				w.mu.Unlock()
				return err
			}
			n += len(word)
		}
		evs, err := w.doc.EventsSince(pre)
		w.mu.Unlock()
		if err != nil {
			return err
		}
		lat.m.Store(evs[len(evs)-1].ID, time.Now())
		if err := conn.Peer.SendEvents(evs); err != nil {
			// Serving node died mid-push: reconnect re-pushes the full
			// local history, so nothing is lost.
			conn.Close()
			w.reconnects.Add(1)
			if conn, err = w.connectRetry(); err != nil {
				return err
			}
		}
		w.sent.Add(int64(len(evs)))
		next = next.Add(time.Duration(float64(n) / *clRate * float64(time.Second)))
		if d := time.Until(next); d > 0 {
			select {
			case <-stop:
				return nil
			case <-time.After(d):
			}
		} else {
			next = time.Now()
		}
	}
}

// benchReader subscribes to one document, resolves latency stamps, and
// counts deliveries; it reconnects if its serving node dies.
type benchReader struct {
	docID     string
	dialer    *cluster.Dialer
	delivered atomic.Int64
}

func (r *benchReader) run(lat *latTracker, stop <-chan struct{}) {
	doc := egwalker.NewDoc("bench-reader-" + r.docID)
	for {
		select {
		case <-stop:
			return
		default:
		}
		conn, first, err := r.dialer.ConnectServing(r.docID, doc.Summary())
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		// RecvFrame has no other way out when traffic stops; closing
		// the connection on stop unblocks it.
		go func() { <-stop; conn.Close() }()
		absorb := func(evs []egwalker.Event) bool {
			for _, ev := range evs {
				if v, ok := lat.m.LoadAndDelete(ev.ID); ok {
					lat.hist.Observe(time.Since(v.(time.Time)).Nanoseconds())
				}
			}
			r.delivered.Add(int64(len(evs)))
			_, err := doc.Apply(evs)
			return err == nil
		}
		ok := first.Kind != netsync.FrameEvents || absorb(first.Events)
		for ok {
			select {
			case <-stop:
				conn.Close()
				return
			default:
			}
			f, err := conn.Peer.RecvFrame()
			if err != nil {
				break
			}
			if f.Kind == netsync.FrameEvents {
				ok = absorb(f.Events)
			}
		}
		conn.Close()
	}
}

// runClusterThroughput measures one write phase against an n-node
// cluster and returns sent/delivered counts plus fan-out latency.
func runClusterThroughput(n int, root string) (clusterRunResult, error) {
	nodes, addrs, err := startBenchCluster(n, root)
	if err != nil {
		return clusterRunResult{}, err
	}
	defer func() {
		for _, bn := range nodes {
			bn.kill()
		}
	}()

	lat := &latTracker{}
	stopW := make(chan struct{})
	stopR := make(chan struct{})
	var readerWG sync.WaitGroup
	readers := make([]*benchReader, *clDocs)
	writers := make([]*benchWriter, 0, *clDocs**clWriters)
	for d := 0; d < *clDocs; d++ {
		docID := fmt.Sprintf("bench-cluster/doc-%02d", d)
		readers[d] = &benchReader{docID: docID, dialer: &cluster.Dialer{Addrs: addrs}}
		readerWG.Add(1)
		go func(r *benchReader) { defer readerWG.Done(); r.run(lat, stopR) }(readers[d])
		for i := 0; i < *clWriters; i++ {
			writers = append(writers, &benchWriter{
				docID:  docID,
				dialer: &cluster.Dialer{Addrs: addrs},
				rng:    rand.New(rand.NewSource(int64(d*100 + i))),
				doc:    egwalker.NewDoc(fmt.Sprintf("bw-%d-%d", d, i)),
			})
		}
	}

	errs := make(chan error, len(writers))
	var writerWG sync.WaitGroup
	for _, w := range writers {
		writerWG.Add(1)
		go func(w *benchWriter) { defer writerWG.Done(); errs <- w.run(lat, stopW) }(w)
	}
	start := time.Now()
	time.Sleep(*clDuration)
	close(stopW)
	writerWG.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return clusterRunResult{}, err
		}
	}
	// Short drain so in-flight fan-out reaches the readers, then stop
	// them too.
	time.Sleep(300 * time.Millisecond)
	close(stopR)
	readerWG.Wait()

	var sent, delivered int64
	for _, w := range writers {
		sent += w.sent.Load()
	}
	for _, r := range readers {
		delivered += r.delivered.Load()
	}
	return clusterRunResult{
		Nodes:           n,
		Replicas:        n,
		EventsSent:      sent,
		EventsDelivered: delivered,
		DeliverEPS:      float64(delivered) / elapsed.Seconds(),
		FanoutNs:        lat.hist.Snapshot(),
	}, nil
}

// waitClusterConverged polls until every listed node reports the same
// (fingerprint, event count) on every document, returning that of the
// last document checked.
func waitClusterConverged(nodes []*benchNode, docIDs []string, timeout time.Duration) (uint64, int, error) {
	deadline := time.Now().Add(timeout)
	for {
		var fp uint64
		var count, total int
		agree := true
	check:
		for _, docID := range docIDs {
			first := true
			for _, bn := range nodes {
				f, n, err := bn.docState(docID)
				if err != nil || (!first && (f != fp || n != count)) {
					agree = false
					break check
				}
				fp, count, first = f, n, false
			}
			total += count
		}
		if agree {
			return fp, total, nil
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("cluster did not converge within %v", timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// runClusterKill measures fail-over: a 3-node cluster under load loses
// one node mid-run; writers reconnect and keep going, the survivors
// converge, and the killed node's rejoin is timed.
func runClusterKill(root string) (*killResult, error) {
	nodes, addrs, err := startBenchCluster(3, root)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, bn := range nodes {
			bn.kill()
		}
	}()

	docIDs := make([]string, *clDocs)
	lat := &latTracker{}
	stopW := make(chan struct{})
	stopR := make(chan struct{})
	var readerWG, writerWG sync.WaitGroup
	readers := make([]*benchReader, *clDocs)
	writers := make([]*benchWriter, 0, *clDocs**clWriters)
	for d := 0; d < *clDocs; d++ {
		docIDs[d] = fmt.Sprintf("bench-kill/doc-%02d", d)
		readers[d] = &benchReader{docID: docIDs[d], dialer: &cluster.Dialer{Addrs: addrs}}
		readerWG.Add(1)
		go func(r *benchReader) { defer readerWG.Done(); r.run(lat, stopR) }(readers[d])
		for i := 0; i < *clWriters; i++ {
			writers = append(writers, &benchWriter{
				docID:  docIDs[d],
				dialer: &cluster.Dialer{Addrs: addrs},
				rng:    rand.New(rand.NewSource(int64(d*100 + i))),
				doc:    egwalker.NewDoc(fmt.Sprintf("bk-%d-%d", d, i)),
			})
		}
	}
	errs := make(chan error, len(writers))
	for _, w := range writers {
		writerWG.Add(1)
		go func(w *benchWriter) { defer writerWG.Done(); errs <- w.run(lat, stopW) }(w)
	}

	// Kill the node serving the first document, so at least its writers
	// must fail over mid-run (other documents may or may not be hit,
	// depending on where the ring placed them).
	victim := nodes[0]
	primary := nodes[0].node.Ring().Primary(docIDs[0])
	for _, bn := range nodes {
		if bn.addr == primary {
			victim = bn
		}
	}
	killAfter := *clDuration / 2
	time.Sleep(killAfter)
	victim.kill()
	time.Sleep(*clDuration - killAfter)
	close(stopW)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var sent, delivered, reconnects int64
	for _, w := range writers {
		sent += w.sent.Load()
		reconnects += w.reconnects.Load()
	}

	// Final resync: a batch written into a socket that died before the
	// server read it was never accepted by anyone, and only its author
	// can re-supply it. One more connect per writer re-pushes the full
	// local history (servers dedup), so the converged count below is a
	// zero-loss claim against everything authored, not just everything
	// the cluster happened to accept.
	for _, w := range writers {
		conn, err := w.connectRetry()
		if err != nil {
			return nil, fmt.Errorf("final resync %s: %w", w.docID, err)
		}
		defer conn.Close()
	}

	// Survivors first: the two live nodes must agree on every document.
	survStart := time.Now()
	var survivors []*benchNode
	for _, bn := range nodes {
		if bn != victim {
			survivors = append(survivors, bn)
		}
	}
	if _, _, err := waitClusterConverged(survivors, docIDs, 30*time.Second); err != nil {
		return nil, fmt.Errorf("survivors: %w", err)
	}
	survSec := time.Since(survStart).Seconds()

	// Rejoin: restart the killed node and time full 3-way convergence —
	// anti-entropy reconciles its journal without a full retransfer.
	rejoinStart := time.Now()
	if err := victim.restart(); err != nil {
		return nil, err
	}
	fp, count, err := waitClusterConverged(nodes, docIDs, 30*time.Second)
	if err != nil {
		return nil, fmt.Errorf("rejoin: %w", err)
	}
	rejoinSec := time.Since(rejoinStart).Seconds()

	time.Sleep(100 * time.Millisecond)
	close(stopR)
	readerWG.Wait()
	for _, r := range readers {
		delivered += r.delivered.Load()
	}
	return &killResult{
		Nodes:                  3,
		KilledAfterSec:         killAfter.Seconds(),
		EventsSent:             sent,
		WriterReconnects:       reconnects,
		SurvivorConvergeSec:    survSec,
		RejoinConvergeSec:      rejoinSec,
		ConvergedEvents:        count,
		LastDocFingerprint:     fmt.Sprintf("%#x", fp),
		DeliveredDuringFailure: delivered,
	}, nil
}

func runClusterBench() error {
	root, err := os.MkdirTemp("", "egbench-cluster-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	rep := clusterReport{
		Schema:      "egbench-cluster/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Config: clusterBenchConfig{
			Docs:        *clDocs,
			Writers:     *clWriters,
			RateEPS:     *clRate,
			DurationSec: clDuration.Seconds(),
		},
	}
	for _, n := range []int{1, 3} {
		fmt.Printf("\n== cluster: %d node(s), %d docs x %d writers at %.0f ev/s for %v ==\n",
			n, *clDocs, *clWriters, *clRate, *clDuration)
		res, err := runClusterThroughput(n, fmt.Sprintf("%s/run%d", root, n))
		if err != nil {
			return err
		}
		fmt.Printf("%-34s %10d sent, %d delivered (%.0f ev/s), fanout p50=%s p99=%s\n",
			fmt.Sprintf("%d-node deliver", n), res.EventsSent, res.EventsDelivered, res.DeliverEPS,
			time.Duration(res.FanoutNs.P50), time.Duration(res.FanoutNs.P99))
		rep.Runs = append(rep.Runs, res)
	}

	fmt.Printf("\n== cluster: kill one of 3 nodes mid-run ==\n")
	kill, err := runClusterKill(root + "/kill")
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %10d sent, %d reconnects, survivors converged in %.2fs, rejoin in %.2fs (%d events)\n",
		"kill-one-node", kill.EventsSent, kill.WriterReconnects,
		kill.SurvivorConvergeSec, kill.RejoinConvergeSec, kill.ConvergedEvents)
	rep.KillOneNode = kill

	f, err := os.Create(*clOut)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", *clOut)
	return nil
}

// maybeRunCluster intercepts the cluster subcommand before trace
// generation, like maybeRunSim.
func maybeRunCluster(cmd string) bool {
	if cmd != "cluster" {
		return false
	}
	if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
		os.Exit(2)
	}
	if err := runClusterBench(); err != nil {
		fmt.Fprintln(os.Stderr, "egbench:", err)
		os.Exit(1)
	}
	return true
}
