package main

// The core subcommand measures the span-wise replay pipeline against the
// per-unit reference implementation and writes a machine-readable
// BENCH_core.json: per-trace replay ns/event, peak transient heap, and
// allocations, for both configurations, plus the resulting speedups. A
// baseline is committed at the repo root; CI runs a smoke at a small
// scale and uploads the result per PR (see .github/workflows/ci.yml).
//
// Usage:
//
//	egbench core [-scale F] [-iters N] [-core-out FILE] [-core-traces S1,C1,...]

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"egwalker/internal/bench"
	"egwalker/internal/core"
	"egwalker/internal/oplog"
	"egwalker/internal/rope"
	"egwalker/internal/trace"
)

var (
	coreOut    = flags.String("core-out", "BENCH_core.json", "output JSON path for the core benchmark")
	coreTraces = flags.String("core-traces", "", "comma-separated trace names to run (default: all)")
)

// coreConfigResult is one (trace, configuration) measurement.
type coreConfigResult struct {
	TotalNs    int64   `json:"total_ns"`
	NsPerEvent float64 `json:"ns_per_event"`
	PeakBytes  uint64  `json:"peak_heap_bytes"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

type coreTraceResult struct {
	Name           string           `json:"name"`
	Kind           string           `json:"kind"`
	Events         int              `json:"events"`
	FinalLen       int              `json:"final_doc_runes"`
	Span           coreConfigResult `json:"span"`
	UnitRef        coreConfigResult `json:"unit_ref"`
	Speedup        float64          `json:"speedup"`
	PeakHeapRatio  float64          `json:"peak_heap_ratio"`
	OutputsMatched bool             `json:"outputs_matched"`
}

type coreReport struct {
	Schema      string            `json:"schema"`
	GeneratedAt string            `json:"generated_at"`
	Scale       float64           `json:"scale"`
	Iters       int               `json:"iters"`
	Traces      []coreTraceResult `json:"traces"`
}

func runCore() error {
	want := map[string]bool{}
	if *coreTraces != "" {
		for _, name := range strings.Split(*coreTraces, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	report := coreReport{
		Schema:      "egbench-core/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       *scale,
		Iters:       *iters,
	}
	fmt.Fprintf(stdout, "\n== core: span-wise replay vs per-unit reference (scale %.3f) ==\n", *scale)
	fmt.Fprintf(stdout, "%-4s %10s %14s %14s %8s %12s %12s %10s\n",
		"", "events", "span ns/ev", "unit ns/ev", "speedup", "span peak", "unit peak", "heap ratio")
	for _, spec := range trace.All() {
		if len(want) > 0 && !want[spec.Name] {
			continue
		}
		s := spec.Scale(*scale)
		l, err := trace.Generate(s)
		if err != nil {
			return fmt.Errorf("generate %s: %w", s.Name, err)
		}
		spanRes, spanText, err := measureCoreConfig(l, core.ReplayRope)
		if err != nil {
			return fmt.Errorf("%s span replay: %w", s.Name, err)
		}
		unitRes, unitText, err := measureCoreConfig(l, core.ReplayRopeUnitRef)
		if err != nil {
			return fmt.Errorf("%s unit-ref replay: %w", s.Name, err)
		}
		tr := coreTraceResult{
			Name:           s.Name,
			Kind:           s.Kind.String(),
			Events:         l.Len(),
			FinalLen:       len([]rune(spanText)),
			Span:           spanRes,
			UnitRef:        unitRes,
			Speedup:        float64(unitRes.TotalNs) / float64(spanRes.TotalNs),
			OutputsMatched: spanText == unitText,
		}
		if spanRes.PeakBytes > 0 {
			tr.PeakHeapRatio = float64(unitRes.PeakBytes) / float64(spanRes.PeakBytes)
		}
		if !tr.OutputsMatched {
			return fmt.Errorf("%s: span and per-unit replays diverged", s.Name)
		}
		report.Traces = append(report.Traces, tr)
		fmt.Fprintf(stdout, "%-4s %10d %14.1f %14.1f %7.2fx %12s %12s %9.2fx\n",
			tr.Name, tr.Events, tr.Span.NsPerEvent, tr.UnitRef.NsPerEvent, tr.Speedup,
			bench.FmtBytes(tr.Span.PeakBytes), bench.FmtBytes(tr.UnitRef.PeakBytes), tr.PeakHeapRatio)
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*coreOut, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *coreOut)
	return nil
}

// measureCoreConfig times iters replays, samples the peak transient
// heap, and counts allocations for one replay.
func measureCoreConfig(l *oplog.Log, replay func(*oplog.Log) (*rope.Rope, error)) (coreConfigResult, string, error) {
	var res coreConfigResult
	var text string
	// Allocation counting (one replay, untimed).
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := replay(l)
	if err != nil {
		return res, "", err
	}
	runtime.ReadMemStats(&after)
	res.Allocs = after.Mallocs - before.Mallocs
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	text = r.String()
	r = nil

	// Timing.
	total := bench.TimedN(*iters, func() {
		if _, err := replay(l); err != nil {
			panic(err)
		}
	})
	res.TotalNs = total.Nanoseconds()
	res.NsPerEvent = float64(res.TotalNs) / float64(l.Len())

	// Peak transient heap, relative to the baseline. The sampler ticks
	// every 200µs, so loop fast replays until the window is long enough
	// to observe the transient state (the peak of repeated replays is the
	// peak of one, give or take GC timing).
	loops := 1
	if total > 0 {
		for loops*int(total/time.Duration(*iters)) < int(100*time.Millisecond) && loops < 1000 {
			loops *= 2
		}
	}
	base := bench.HeapRetained()
	peak, _ := bench.MeasurePeak(func() {
		for i := 0; i < loops; i++ {
			if _, err := replay(l); err != nil {
				panic(err)
			}
		}
	})
	if peak > base {
		res.PeakBytes = peak - base
	}
	return res, text, nil
}
