// Command egserve hosts durable collaborative documents over TCP: the
// paper's relay server (§2.1) with the store subsystem underneath.
// One process serves any number of documents from one data directory;
// clients name the document they want with the doc hello
// (netsync.Dial) and then speak the ordinary relay protocol. Every batch a client uploads is journaled
// to the document's write-ahead log before fan-out; fsyncs are batched
// on -flush, snapshots and compaction run in the background, and a
// restart recovers every document from snapshot + WAL tail.
//
// Usage:
//
//	egserve [-addr :4222] [-data DIR] [-flush 50ms] [-max-open 64] [-max-journal 1024]
//	        [-snapshot-every 8192] [-outbox-bytes 1048576] [-outbox-total 268435456]
//	        [-metrics-addr :4223] [-metrics-every 0]
//	        [-cluster host1:4222,host2:4222,... -cluster-self host1:4222 -replicas 3]
//
// Fan-out back-pressure: every subscriber's pending frames are held in
// a byte-budgeted outbox. A peer past -outbox-bytes first has its
// queue coalesced (adjacent frames merged into one batch, which the
// compact encoding shrinks dramatically); only if it is still over
// budget is it severed, and it reconnects with a summary hello that
// replays exactly what it missed. -outbox-total caps the queued bytes
// across all subscribers of all documents, which bounds server RSS no
// matter how many peers go slow at once. The conn_count, outbox_bytes,
// coalesced_frames and sever_rate metrics observe this machinery.
//
// Cluster mode: -cluster lists the full static membership (every node
// must be started with the same list; the placement ring is a pure
// function of it) and -cluster-self names this node's advertised
// address within it. Each document gets -replicas owners on the ring;
// the serving replica journals client uploads and pushes them to the
// others over persistent replica links, with periodic anti-entropy
// healing anything a link dropped. Clients landing on a non-owner are
// redirected (capability-negotiated) or transparently proxied.
//
// Observability: -metrics-addr serves the store.Server metrics
// snapshot (apply/fsync latency histograms with p50/p95/p99,
// group-commit batch sizes, outbox depths, sever/eviction/resume
// counters) as JSON on GET /metrics, plus a GET /healthz readiness
// probe (200 when the process is serving and its WAL directory is
// writable, 503 otherwise), and the runtime's profiles under
// /debug/pprof/ (net/http/pprof: go tool pprof
// http://HOST:4223/debug/pprof/profile). Bind it to an address only
// operators can reach. -metrics-every additionally logs
// the same JSON on an interval. cmd/egload drives this server under
// configurable workload mixes and folds the endpoint's snapshot into
// its BENCH_server.json report.
//
// Client sketch:
//
//	conn, _ := net.Dial("tcp", "localhost:4222")
//	doc := egwalker.NewDoc("alice")
//	c, _ := netsync.Dial(doc, conn, "notes/todo")
//	// c.Receive() delivers the hosted history + live edits;
//	// c.Push(doc.EventsSince(...)) uploads local ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"egwalker/cluster"
	"egwalker/store"
)

var (
	addr        = flag.String("addr", ":4222", "TCP listen address")
	dataDir     = flag.String("data", "egserve-data", "store root directory")
	flush       = flag.Duration("flush", 50*time.Millisecond, "group-commit fsync interval (negative: fsync every append)")
	maxOpen     = flag.Int("max-open", 64, "documents kept materialized (LRU)")
	maxJournal  = flag.Int("max-journal", 1024, "documents kept open journal-only (two fds each)")
	snapshot    = flag.Int("snapshot-every", 8192, "events per document between background compactions (0: never)")
	segmentMax  = flag.Int64("segment-max", 0, "WAL segment rotation threshold in bytes (0: default 1 MiB)")
	scrubEvery  = flag.Duration("scrub-every", 0, "period of the background integrity scrub over all documents (0: off)")
	scrubRate   = flag.Int64("scrub-rate", 0, "scrub read budget in bytes/second (0: default 8 MiB/s, negative: unlimited)")
	outboxPeer  = flag.Int64("outbox-bytes", 0, "queued fan-out bytes one slow subscriber may buffer before coalesce-then-sever (0: default 1 MiB)")
	outboxTotal = flag.Int64("outbox-total", 0, "queued fan-out bytes across all subscribers — the RSS backstop (0: default 256 MiB)")
	metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics (JSON snapshot), /healthz, /fingerprint?doc=ID and /debug/pprof/ on this address, not a public one (empty: off)")
	metricsLog  = flag.Duration("metrics-every", 0, "log a metrics JSON snapshot on this interval (0: off)")

	clusterPeers = flag.String("cluster", "", "comma-separated full cluster membership (empty: single-node)")
	clusterSelf  = flag.String("cluster-self", "", "this node's advertised address within -cluster (default: -addr)")
	replicas     = flag.Int("replicas", 3, "replica-set size per document in cluster mode (clamped to the node count)")
	grace        = flag.Duration("grace", 5*time.Second, "how long a peer stays unreachable before its documents fail over")
	antiEntropy  = flag.Duration("anti-entropy", 5*time.Second, "period of the replica-link version exchange")
)

func main() {
	flag.Parse()
	log.SetPrefix("egserve: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	srvOpts := store.ServerOptions{
		MaxOpenDocs:        *maxOpen,
		MaxJournalDocs:     *maxJournal,
		FlushInterval:      *flush,
		SnapshotEvery:      *snapshot,
		ScrubEvery:         *scrubEvery,
		ScrubBytesPerSec:   *scrubRate,
		OutboxBytesPerPeer: *outboxPeer,
		OutboxBytesTotal:   *outboxTotal,
		Logf:               log.Printf,
	}
	srvOpts.DocOptions.SegmentMaxBytes = *segmentMax

	// serveConn/healthz/shutdown abstract over the two modes: a bare
	// store.Server, or a cluster.Node routing and replicating on top of
	// one.
	var (
		srv       *store.Server
		serveConn func(net.Conn) error
		shutdown  func() error
	)
	if *clusterPeers != "" {
		peers := strings.Split(*clusterPeers, ",")
		for i := range peers {
			peers[i] = strings.TrimSpace(peers[i])
		}
		self := *clusterSelf
		if self == "" {
			self = *addr
		}
		node, err := cluster.NewNode(*dataDir, srvOpts, cluster.Options{
			Self:             self,
			Peers:            peers,
			Replication:      *replicas,
			GracePeriod:      *grace,
			AntiEntropyEvery: *antiEntropy,
			Logf:             log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		srv = node.Server()
		serveConn = node.ServeConn
		shutdown = node.Close
		log.Printf("cluster member %s of %v (replicas: %d, grace: %v)", self, peers, *replicas, *grace)
	} else {
		s, err := store.NewServer(*dataDir, srvOpts)
		if err != nil {
			log.Fatal(err)
		}
		srv = s
		serveConn = func(conn net.Conn) error { return s.ServeConn(conn) }
		shutdown = s.Close
	}
	if ids, err := srv.DocIDs(); err != nil {
		// A store that cannot list its documents will fail requests
		// too; say so now instead of as per-connection mysteries.
		log.Printf("list documents in %s: %v", *dataDir, err)
	} else if len(ids) > 0 {
		log.Printf("recovered %d documents from %s", len(ids), *dataDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (data: %s, flush: %v, lru: %d)", ln.Addr(), *dataDir, *flush, *maxOpen)

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics on http://%s/metrics", mln.Addr())
		go http.Serve(mln, metricsMux(srv))
	}
	if *metricsLog > 0 {
		go func() {
			t := time.NewTicker(*metricsLog)
			defer t.Stop()
			for range t.C {
				b, err := json.Marshal(srv.MetricsSnapshot())
				if err != nil {
					log.Printf("metrics: %v", err)
					continue
				}
				log.Printf("metrics %s", b)
			}
		}()
	}

	// Track live connections so shutdown can sever them: ServeConn
	// blocks reading its peer, and an idle client would otherwise keep
	// wg.Wait() (and the final document sync) hostage forever.
	var mu sync.Mutex
	conns := make(map[net.Conn]struct{})
	var wg sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			mu.Lock()
			conns[conn] = struct{}{}
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					mu.Lock()
					delete(conns, conn)
					mu.Unlock()
					conn.Close()
				}()
				if err := serveConn(conn); err != nil {
					log.Printf("conn %s: %v", conn.RemoteAddr(), err)
				}
			}()
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr)
	log.Printf("shutting down")
	ln.Close()
	mu.Lock()
	for conn := range conns {
		conn.Close() // unblocks ServeConn's read
	}
	mu.Unlock()
	wg.Wait()
	if err := shutdown(); err != nil {
		log.Printf("close: %v", err)
		os.Exit(1)
	}
	log.Printf("all documents synced")
}

// metricsMux serves the -metrics-addr endpoints: the metrics snapshot,
// the readiness probe, a document's fingerprint and, under /debug/pprof/,
// the runtime's profiles. The profiles show what the process is doing
// and the fingerprints what it holds, so the address must not be one the
// public can reach.
func metricsMux(srv *store.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(srv.MetricsSnapshot()); err != nil {
			log.Printf("metrics: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if err := srv.Healthz(); err != nil {
			log.Printf("healthz: %v", err)
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		// Quarantined documents degrade the probe without failing
		// it: the node still serves everything else (and the
		// salvaged prefixes), so load balancers should keep it, but
		// operators and the chaos harness can see the damage.
		if n := srv.QuarantinedCount(); n > 0 {
			fmt.Fprintf(w, "degraded (quarantined_docs=%d)\n", n)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/fingerprint", func(w http.ResponseWriter, r *http.Request) {
		docID := r.URL.Query().Get("doc")
		if docID == "" {
			http.Error(w, "missing ?doc=ID", http.StatusBadRequest)
			return
		}
		var fp uint64
		err := srv.With(docID, func(ds *store.DocStore) error {
			var err error
			fp, err = ds.Fingerprint()
			return err
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "%#x\n", fp)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
