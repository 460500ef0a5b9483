package main

// The size subcommand reproduces the paper's "Smaller" claim on our
// trace suite: it replays every trace, encodes the full event history
// with the naive per-event batch codec and with the compact columnar
// codec (docs/FORMAT.md), and reports total bytes and bytes/event for
// each, plus the DEFLATE-compressed columnar variant — the repo's
// Table 2-style comparison. It also cross-checks the differential
// oracle (columnar decode must reproduce the naive codec's event list
// exactly) and writes a machine-readable BENCH_size.json; the baseline
// at the repo root records the committed numbers, and CI runs a smoke
// at small scale asserting columnar stays ≤ 50% of naive.
//
// Usage:
//
//	egbench size [-scale F] [-size-out FILE] [-size-traces S1,C1,...]

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"egwalker"
	"egwalker/internal/bench"
	"egwalker/internal/colenc"
	"egwalker/internal/trace"
	"egwalker/netsync"
)

var (
	sizeOut    = flags.String("size-out", "BENCH_size.json", "output JSON path for the size benchmark")
	sizeTraces = flags.String("size-traces", "", "comma-separated trace names to run (default: all)")
)

type sizeTraceResult struct {
	Name               string  `json:"name"`
	Kind               string  `json:"kind"`
	Events             int     `json:"events"`
	NaiveBytes         int     `json:"naive_bytes"`
	ColumnarBytes      int     `json:"columnar_bytes"`
	ColumnarFlateBytes int     `json:"columnar_flate_bytes"`
	NaiveBytesPerEvent float64 `json:"naive_bytes_per_event"`
	ColBytesPerEvent   float64 `json:"columnar_bytes_per_event"`
	ColumnarRatio      float64 `json:"columnar_ratio"`
	ColumnarFlateRatio float64 `json:"columnar_flate_ratio"`
	DecodeMatchesNaive bool    `json:"decode_matches_naive"`
	ColumnarNsPerEvent float64 `json:"columnar_encode_ns_per_event"`
	NaiveEncNsPerEvent float64 `json:"naive_encode_ns_per_event"`
}

// handshakeResult measures one post-failover reconnect at one history
// length: a client holding the full history plus a small offline tail
// reconnects to a replica that never saw the tail. The summary hello
// intersects exactly and the server sends nothing the client already
// holds. The anti-entropy column measures the per-round summary frame
// on a replica link between converged peers. Hello and frame sizes are
// true wire bytes (frame headers included); both stay O(distinct agent
// runs) — flat as the history grows.
type handshakeResult struct {
	Events      int `json:"events"`
	Agents      int `json:"agents"`
	OfflineTail int `json:"offline_tail_events"`

	SummaryHelloBytes  int `json:"summary_hello_bytes"`
	SummaryResendBytes int `json:"summary_resend_bytes"`
	SummaryTotalBytes  int `json:"summary_total_bytes"`

	AntiEntropySummaryFrameBytes int `json:"anti_entropy_summary_frame_bytes"`
}

type sizeReport struct {
	Schema      string            `json:"schema"`
	GeneratedAt string            `json:"generated_at"`
	Scale       float64           `json:"scale"`
	Traces      []sizeTraceResult `json:"traces"`
	TotalNaive  int               `json:"total_naive_bytes"`
	TotalCol    int               `json:"total_columnar_bytes"`
	TotalFlate  int               `json:"total_columnar_flate_bytes"`
	Handshake   []handshakeResult `json:"handshake"`
}

func runSize() error {
	want := map[string]bool{}
	if *sizeTraces != "" {
		for _, name := range strings.Split(*sizeTraces, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	report := sizeReport{
		Schema:      "egbench-size/v2",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       *scale,
	}
	fmt.Fprintf(stdout, "\n== size: naive vs columnar event-graph encoding (scale %.3f) ==\n", *scale)
	fmt.Fprintf(stdout, "%-4s %10s %12s %6s %12s %6s %12s %6s\n",
		"", "events", "naive", "B/ev", "columnar", "B/ev", "col+flate", "B/ev")
	for _, spec := range trace.All() {
		if len(want) > 0 && !want[spec.Name] {
			continue
		}
		s := spec.Scale(*scale)
		l, err := trace.Generate(s)
		if err != nil {
			return fmt.Errorf("generate %s: %w", s.Name, err)
		}
		wire := colenc.EventsFromLog(l)
		events := eventsFromWire(wire)

		var naive, columnar []byte
		naiveTotal := bench.Timed(func() {
			var err error
			naive, err = egwalker.MarshalEvents(events)
			if err != nil {
				panic(err)
			}
		})
		colTotal := bench.Timed(func() {
			var err error
			columnar, err = egwalker.MarshalEventsCompact(events)
			if err != nil {
				panic(err)
			}
		})
		flate, err := colenc.Encode(wire, colenc.Options{Compress: true})
		if err != nil {
			return fmt.Errorf("%s flate encode: %w", s.Name, err)
		}

		// Differential oracle: the columnar bytes must decode to the
		// exact event list the naive codec round-trips.
		fromNaive, err := egwalker.UnmarshalEventsAuto(naive)
		if err != nil {
			return fmt.Errorf("%s naive decode: %w", s.Name, err)
		}
		fromCol, err := egwalker.UnmarshalEventsAuto(columnar)
		if err != nil {
			return fmt.Errorf("%s columnar decode: %w", s.Name, err)
		}
		matched := reflect.DeepEqual(fromNaive, fromCol) && reflect.DeepEqual(fromCol, events)
		if !matched {
			return fmt.Errorf("%s: columnar decode diverges from the naive codec", s.Name)
		}

		n := len(events)
		tr := sizeTraceResult{
			Name:               s.Name,
			Kind:               s.Kind.String(),
			Events:             n,
			NaiveBytes:         len(naive),
			ColumnarBytes:      len(columnar),
			ColumnarFlateBytes: len(flate),
			NaiveBytesPerEvent: float64(len(naive)) / float64(n),
			ColBytesPerEvent:   float64(len(columnar)) / float64(n),
			ColumnarRatio:      float64(len(columnar)) / float64(len(naive)),
			ColumnarFlateRatio: float64(len(flate)) / float64(len(naive)),
			DecodeMatchesNaive: matched,
			NaiveEncNsPerEvent: float64(naiveTotal.Nanoseconds()) / float64(n),
			ColumnarNsPerEvent: float64(colTotal.Nanoseconds()) / float64(n),
		}
		report.Traces = append(report.Traces, tr)
		report.TotalNaive += tr.NaiveBytes
		report.TotalCol += tr.ColumnarBytes
		report.TotalFlate += tr.ColumnarFlateBytes
		fmt.Fprintf(stdout, "%-4s %10d %12s %6.2f %12s %6.2f %12s %6.2f\n",
			tr.Name, tr.Events,
			bench.FmtBytes(uint64(tr.NaiveBytes)), tr.NaiveBytesPerEvent,
			bench.FmtBytes(uint64(tr.ColumnarBytes)), tr.ColBytesPerEvent,
			bench.FmtBytes(uint64(tr.ColumnarFlateBytes)), float64(tr.ColumnarFlateBytes)/float64(tr.Events))
	}
	if report.TotalNaive > 0 {
		fmt.Fprintf(stdout, "total: naive %s, columnar %s (%.1f%%), columnar+flate %s (%.1f%%)\n",
			bench.FmtBytes(uint64(report.TotalNaive)),
			bench.FmtBytes(uint64(report.TotalCol)), 100*float64(report.TotalCol)/float64(report.TotalNaive),
			bench.FmtBytes(uint64(report.TotalFlate)), 100*float64(report.TotalFlate)/float64(report.TotalNaive))
	}
	if err := runHandshake(&report); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*sizeOut, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *sizeOut)
	return nil
}

// handshake benchmark parameters: fixed history lengths (independent
// of -scale, so the flatness of the summary columns is measured over a
// full 16× growth even in the CI smoke), a handful of contributing
// agents, and a small offline tail — the shape of a real reconnect
// after fail-over.
const (
	handshakeAgents = 8
	handshakeTail   = 16
)

var handshakeSizes = []int{2048, 8192, 32768}

// buildHandshakeDoc grows a document by `agents` collaborators taking
// turns, each contributing one contiguous run of events — the shape
// every real editing history has, and what makes a full replica's
// summary one range per agent.
func buildHandshakeDoc(events, agents int) (*egwalker.Doc, error) {
	doc := egwalker.NewDoc("agent-00")
	per := events / agents
	for a := 0; a < agents; a++ {
		if a > 0 {
			var err error
			doc, err = doc.Fork(fmt.Sprintf("agent-%02d", a))
			if err != nil {
				return nil, err
			}
		}
		n := per
		if a == agents-1 {
			n = events - per*(agents-1)
		}
		for i := 0; i < n; i++ {
			if err := doc.Insert(doc.Len(), "x"); err != nil {
				return nil, err
			}
		}
	}
	return doc, nil
}

// wireBytes runs send against a PeerConn writing into a buffer and
// returns the exact bytes it put on the wire, frame headers included.
func wireBytes(send func(pc *netsync.PeerConn) error) (int, error) {
	var buf bytes.Buffer
	if err := send(netsync.NewPeerConn(&buf)); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

func runHandshake(report *sizeReport) error {
	const docID = "bench/handshake"
	fmt.Fprintf(stdout, "\n== handshake: post-failover summary reconnect (%d agents, %d-event offline tail) ==\n",
		handshakeAgents, handshakeTail)
	fmt.Fprintf(stdout, "%8s %12s %12s %10s\n", "events", "sum-hello", "sum-resend", "ae-sum")
	for _, n := range handshakeSizes {
		server, err := buildHandshakeDoc(n, handshakeAgents)
		if err != nil {
			return fmt.Errorf("handshake %d: %w", n, err)
		}
		// The client holds everything the server does plus an offline
		// tail the server never saw, so the server owes it nothing.
		client, err := server.Fork("client")
		if err != nil {
			return fmt.Errorf("handshake %d: %w", n, err)
		}
		for i := 0; i < handshakeTail; i++ {
			if err := client.Insert(client.Len(), "y"); err != nil {
				return err
			}
		}

		hr := handshakeResult{Events: n, Agents: handshakeAgents, OfflineTail: handshakeTail}
		sum := client.Summary()
		hr.SummaryHelloBytes, err = wireBytes(func(pc *netsync.PeerConn) error {
			return pc.SendHello(netsync.Hello{DocID: docID, Summary: sum, Compact: true})
		})
		if err != nil {
			return err
		}
		diff, err := server.EventsSinceSummary(sum)
		if err != nil {
			return fmt.Errorf("handshake %d: summary diff: %w", n, err)
		}
		if len(diff) != 0 {
			return fmt.Errorf("handshake %d: summary diff re-sent %d events the client already holds", n, len(diff))
		}
		hr.SummaryResendBytes, err = wireBytes(func(pc *netsync.PeerConn) error {
			return pc.SendEventsCompact(diff)
		})
		if err != nil {
			return err
		}
		hr.SummaryTotalBytes = hr.SummaryHelloBytes + hr.SummaryResendBytes

		// Anti-entropy frames between converged replicas: what one
		// periodic exchange round costs on a replica link.
		hr.AntiEntropySummaryFrameBytes, err = wireBytes(func(pc *netsync.PeerConn) error {
			return pc.SendSummary(server.Summary())
		})
		if err != nil {
			return err
		}
		report.Handshake = append(report.Handshake, hr)
		fmt.Fprintf(stdout, "%8d %12d %12d %10d\n",
			hr.Events, hr.SummaryHelloBytes, hr.SummaryResendBytes, hr.AntiEntropySummaryFrameBytes)
	}
	return nil
}

// eventsFromWire converts colenc's mirror event type to the public
// one, so the log is walked once (colenc.EventsFromLog) and both
// codecs measure the identical event list.
func eventsFromWire(wire []colenc.Event) []egwalker.Event {
	out := make([]egwalker.Event, len(wire))
	for i, ev := range wire {
		var ps []egwalker.EventID
		if len(ev.Parents) > 0 {
			ps = make([]egwalker.EventID, len(ev.Parents))
			for j, p := range ev.Parents {
				ps[j] = egwalker.EventID{Agent: p.Agent, Seq: p.Seq}
			}
		}
		out[i] = egwalker.Event{
			ID:      egwalker.EventID{Agent: ev.ID.Agent, Seq: ev.ID.Seq},
			Parents: ps,
			Insert:  ev.Insert,
			Pos:     ev.Pos,
			Content: ev.Content,
		}
	}
	return out
}
