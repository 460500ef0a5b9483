// Command egload is an open-loop load generator for egserve: it drives
// many concurrent clients across many documents over real TCP, measures
// what the paper's server story needs measured — apply/fan-out latency
// under load, reconnect catch-up cost — and writes a machine-readable
// BENCH_server.json so every run extends a comparable perf trajectory.
//
// Usage:
//
//	egload [-addr 127.0.0.1:4222] [-docs 4] [-writers 2] [-rate 100]
//	       [-duration 10s] [-mix seq,burst,trace,resume,hotdoc,colddocs]
//	       [-schedule ramp:500:5000:500] [-slot 1s] [-conns 1000]
//	       [-writers-total 64] [-slo 250ms]
//	       [-cold-docs 10000] [-cold-joins 500]
//	       [-out BENCH_server.json] [-metrics-url http://127.0.0.1:4223/metrics]
//	       [-seed 1] [-doc-prefix NAME] [-cluster host1:4222,host2:4222,...]
//
// Against an egserve cluster, -cluster lists seed addresses: initial
// dials rotate across them and every client advertises the redirect
// capability, following redirect frames to each document's serving
// replica (fail-over included — a redirect landing on a dead node is
// retried against the remaining candidates). The colddocs mix keeps
// dialing the first seed directly; non-owners proxy those joins.
//
// Workload mixes (each runs for -duration against its own fresh set of
// documents):
//
//   - seq: one writer per document typing sequentially — the fast path,
//     a linear event graph per document.
//   - burst: -writers concurrent writers per document editing at once;
//     constant short-lived branches force real merge work on the server
//     and on every subscriber.
//   - trace: like burst, but writers type with the C1 benchmark trace's
//     calibrated statistics (internal/trace.TypistFromSpec) instead of
//     the default mix.
//   - resume: steady single-writer traffic plus one churn client per
//     document that repeatedly disconnects and reconnects with a hello
//     carrying its version summary, measuring catch-up latency and how
//     many events each catch-up shipped versus the full history a
//     snapshot join would have sent.
//   - hotdoc: writers are assigned to documents by a Zipf draw, so a
//     few documents absorb most of the fleet — per-document lock and
//     outbox contention under skew.
//   - colddocs: populates -cold-docs write-mostly documents (one
//     short-lived compact writer each, far beyond the server's
//     materialization cap) and then samples -cold-joins cold compact
//     joins, measuring dial→first-frame and dial→caught-up latency —
//     the zero-materialization block-serve path under a large hosted
//     population. Ignores -duration; see -cold-docs and -cold-joins.
//
// Scaling knobs (internal/loadgen):
//
//   - -schedule drives the aggregate offered rate (events/second across
//     the whole writer fleet, not per writer) slot by slot:
//     steady:RATE:SLOTS, ramp:BEGIN:TARGET:STEP[:SLOTS_PER_STEP],
//     sweep:... (ramp up then back down), and
//     burst:BASE:PEAK:PERIOD:DUTY:SLOTS (see internal/sched). Each
//     -slot wall-clock interval gets its own send/deliver throughput
//     and fan-out p50/p95/p99 row in the report, and the knee — the
//     first slot whose p99 exceeds -slo or whose deliveries fall below
//     99% of offered — is computed from the curve.
//   - -conns multiplexes that many subscriber connections over the
//     documents (at least one per document while they last, extras
//     skewed by the mix's Zipf draw), so thousand-connection fan-out is
//     measurable from one process.
//   - -writers-total fixes the writer fleet size absolutely; with Zipf
//     document populations in the thousands, writers-per-doc stops
//     being the natural knob.
//
// Every mix reports send/deliver throughput (events/sec) and the
// client-observed fan-out latency distribution (p50/p95/p99): the time
// from a writer handing a batch to the TCP stack until a subscriber of
// the same document has it. Writers and readers live in one process,
// so timestamps share a clock. With -metrics-url, the server's own
// /metrics snapshot (apply latency, fsync stalls, group-commit batch
// sizes, outbox depths and bytes, sever/coalesce/resume counters) is
// fetched after the last mix and embedded in the report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"egwalker/cluster"
	"egwalker/internal/loadgen"
	"egwalker/internal/sched"
)

// config is one invocation's flags.
type config struct {
	addr         string
	docs         int
	writers      int
	writersTotal int
	rate         float64
	duration     time.Duration
	schedule     string
	slot         time.Duration
	conns        int
	slo          time.Duration
	mix          string
	out          string
	metricsURL   string
	seed         int64
	docPrefix    string
	cluster      string
	coldDocs     int
	coldJoins    int

	// dialer is non-nil when -cluster is set; it rotates initial dials
	// across the seed list and follows redirect frames to each
	// document's serving replica.
	dialer *cluster.Dialer
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("egload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:4222", "egserve TCP address")
	fs.IntVar(&c.docs, "docs", 4, "documents per mix")
	fs.IntVar(&c.writers, "writers", 2, "writers per document (burst/trace/hotdoc mixes)")
	fs.IntVar(&c.writersTotal, "writers-total", 0, "total writer fleet size (overrides docs*writers when > 0)")
	fs.Float64Var(&c.rate, "rate", 100, "target events/second per writer (open loop; ignored when -schedule is set)")
	fs.DurationVar(&c.duration, "duration", 10*time.Second, "run time per mix (ignored when -schedule is set)")
	fs.StringVar(&c.schedule, "schedule", "", "aggregate rate schedule, e.g. ramp:500:5000:500 (see internal/sched; overrides -rate/-duration)")
	fs.DurationVar(&c.slot, "slot", time.Second, "wall-clock length of one schedule slot")
	fs.IntVar(&c.conns, "conns", 0, "subscriber connections multiplexed over the documents (0: one full reader per doc)")
	fs.DurationVar(&c.slo, "slo", 250*time.Millisecond, "fan-out p99 SLO for knee detection on scheduled runs")
	fs.StringVar(&c.mix, "mix", "seq,burst,resume", "comma-separated workload mixes (seq,burst,trace,resume,hotdoc)")
	fs.StringVar(&c.out, "out", "BENCH_server.json", "report path")
	fs.StringVar(&c.metricsURL, "metrics-url", "", "egserve metrics endpoint to embed in the report")
	fs.Int64Var(&c.seed, "seed", 1, "base RNG seed (edit streams are deterministic per seed)")
	fs.StringVar(&c.docPrefix, "doc-prefix", "", "document ID prefix (default load-<pid>-<unix>, so each run gets fresh docs)")
	fs.StringVar(&c.cluster, "cluster", "", "comma-separated egserve cluster seed addresses (spread connections, follow redirect frames; overrides -addr)")
	fs.IntVar(&c.coldDocs, "cold-docs", 10000, "documents populated by the colddocs mix")
	fs.IntVar(&c.coldJoins, "cold-joins", 500, "cold compact joins sampled by the colddocs mix")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.docPrefix == "" {
		c.docPrefix = fmt.Sprintf("load-%d-%d", os.Getpid(), time.Now().Unix())
	}
	if c.cluster != "" {
		seeds := strings.Split(c.cluster, ",")
		for i := range seeds {
			seeds[i] = strings.TrimSpace(seeds[i])
		}
		c.dialer = &cluster.Dialer{Addrs: seeds}
		// Remaining direct-dial paths (colddocs population and joins)
		// target the first seed; a non-owner proxies them to the
		// serving replica.
		c.addr = seeds[0]
	}
	return c, nil
}

// report is the BENCH_server.json schema. The schema string is bumped
// on breaking changes so trajectory tooling can tell runs apart.
type report struct {
	Schema        string           `json:"schema"`
	GeneratedAt   string           `json:"generated_at"`
	Addr          string           `json:"addr"`
	Config        runConfig        `json:"config"`
	Mixes         []loadgen.Result `json:"mixes"`
	ServerMetrics json.RawMessage  `json:"server_metrics,omitempty"`
}

type runConfig struct {
	Docs         int     `json:"docs"`
	Writers      int     `json:"writers_per_doc"`
	WritersTotal int     `json:"writers_total,omitempty"`
	RateEPS      float64 `json:"target_rate_events_per_sec_per_writer"`
	DurationSec  float64 `json:"duration_sec_per_mix"`
	Schedule     string  `json:"schedule,omitempty"`
	SlotSec      float64 `json:"slot_sec,omitempty"`
	Conns        int     `json:"conns,omitempty"`
	SLONs        int64   `json:"slo_ns,omitempty"`
	Seed         int64   `json:"seed"`
}

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "egload:", err)
		os.Exit(1)
	}
}

// run parses args, runs every mix and writes the report, logging
// progress to stderr.
func run(args []string, stderr io.Writer) error {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	var schedule *sched.Schedule
	if c.schedule != "" {
		if schedule, err = sched.Parse(c.schedule); err != nil {
			return err
		}
	}
	names := strings.Split(c.mix, ",")
	rep := report{
		Schema:      "egload/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Addr:        c.addr,
		Config: runConfig{
			Docs:         c.docs,
			Writers:      c.writers,
			WritersTotal: c.writersTotal,
			RateEPS:      c.rate,
			DurationSec:  c.duration.Seconds(),
			Seed:         c.seed,
			Conns:        c.conns,
		},
	}
	if schedule != nil {
		rep.Config.Schedule = schedule.Spec()
		rep.Config.SlotSec = c.slot.Seconds()
		rep.Config.SLONs = c.slo.Nanoseconds()
		rep.Config.DurationSec = (time.Duration(schedule.NumSlots()) * c.slot).Seconds()
	}
	for i, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "colddocs" {
			fmt.Fprintf(stderr, "egload: mix %q (%d/%d): %d docs, %d joins...\n", name, i+1, len(names), c.coldDocs, c.coldJoins)
			res, err := c.runColdDocs(stderr)
			if err != nil {
				return err
			}
			cold := res.Cold
			fmt.Fprintf(stderr, "egload: mix %q: populated %d docs in %.1fs, %d cold joins, first-frame p50=%s p99=%s\n",
				name, cold.Docs, cold.PopulateSec, cold.Joins,
				time.Duration(cold.FirstFrameNs.P50), time.Duration(cold.FirstFrameNs.P99))
			rep.Mixes = append(rep.Mixes, res)
			continue
		}
		spec, err := loadgen.MixByName(name, c.writers, c.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "egload: mix %q (%d/%d)...\n", name, i+1, len(names))
		res, err := loadgen.Run(loadgen.Config{
			Dial:         c.connectDoc,
			Mix:          spec,
			Docs:         c.docs,
			DocPrefix:    c.docPrefix,
			WritersTotal: c.writersTotal,
			Conns:        c.conns,
			Rate:         c.rate,
			Duration:     c.duration,
			Schedule:     schedule,
			SlotDur:      c.slot,
			SLO:          c.slo,
			Seed:         c.seed,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, "egload: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "egload: mix %q: sent %d ev (%.0f ev/s), delivered %d, fanout p50=%s p99=%s\n",
			name, res.EventsSent, res.SendEPS, res.EventsDelivered,
			time.Duration(res.FanoutNs.P50), time.Duration(res.FanoutNs.P99))
		if res.Knee != nil {
			if res.Knee.Found {
				fmt.Fprintf(stderr, "egload: mix %q: knee at slot %d (target %.0f ev/s, %s)\n",
					name, res.Knee.Slot, res.Knee.TargetEPS, res.Knee.Reason)
			} else {
				fmt.Fprintf(stderr, "egload: mix %q: no knee found within the schedule\n", name)
			}
		}
		rep.Mixes = append(rep.Mixes, res)
	}
	if c.metricsURL != "" {
		if m, err := fetchMetrics(c.metricsURL); err != nil {
			fmt.Fprintf(stderr, "egload: fetching server metrics: %v\n", err)
		} else {
			rep.ServerMetrics = m
		}
	}
	f, err := os.Create(c.out)
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
	fmt.Fprintf(stderr, "egload: wrote %s (%d mixes)\n", c.out, len(rep.Mixes))
	return nil
}

func fetchMetrics(url string) (json.RawMessage, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics endpoint: %s", resp.Status)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if !json.Valid(b) {
		return nil, fmt.Errorf("metrics endpoint returned invalid JSON")
	}
	return json.RawMessage(b), nil
}
