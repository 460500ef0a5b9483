package egwalker

// Benchmark harness: one benchmark family per table/figure of the
// paper's evaluation (§4). See DESIGN.md's experiment index and
// EXPERIMENTS.md for measured results.
//
// Traces are synthetic (internal/trace), scaled by EGW_BENCH_SCALE
// (default 0.005 so `go test -bench=.` completes quickly; cmd/egbench
// runs the full harness at larger scales and also measures memory,
// which testing.B cannot report faithfully).

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"egwalker/internal/causal"
	"egwalker/internal/colenc"
	"egwalker/internal/core"
	"egwalker/internal/listcrdt"
	"egwalker/internal/oplog"
	"egwalker/internal/ot"
	"egwalker/internal/trace"
)

var (
	benchOnce   sync.Once
	benchTraces map[string]*oplog.Log
	benchScale  = 0.005
)

func loadBenchTraces(b *testing.B) map[string]*oplog.Log {
	benchOnce.Do(func() {
		if s := os.Getenv("EGW_BENCH_SCALE"); s != "" {
			if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
				benchScale = f
			}
		}
		benchTraces = make(map[string]*oplog.Log)
		for _, spec := range trace.All() {
			l, err := trace.Generate(spec.Scale(benchScale))
			if err != nil {
				panic(fmt.Sprintf("generate %s: %v", spec.Name, err))
			}
			benchTraces[spec.Name] = l
		}
	})
	return benchTraces
}

func eachTrace(b *testing.B, fn func(b *testing.B, name string, l *oplog.Log)) {
	traces := loadBenchTraces(b)
	for _, spec := range trace.All() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			fn(b, spec.Name, traces[spec.Name])
		})
	}
}

// --- Table 1: trace statistics (reported once, not timed) ---------------

func BenchmarkTable1Stats(b *testing.B) {
	eachTrace(b, func(b *testing.B, name string, l *oplog.Log) {
		var st trace.Stats
		for i := 0; i < b.N; i++ {
			var err error
			st, err = trace.Measure(name, l)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Events), "events")
		b.ReportMetric(float64(st.GraphRuns), "runs")
		b.ReportMetric(st.AvgConcurrency, "avgconc")
	})
}

// --- Figure 8: merge time per algorithm ----------------------------------

func BenchmarkFig8MergeEgwalker(b *testing.B) {
	eachTrace(b, func(b *testing.B, _ string, l *oplog.Log) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ReplayRope(l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig8MergeRefCRDT(b *testing.B) {
	eachTrace(b, func(b *testing.B, _ string, l *oplog.Log) {
		ops, err := listcrdt.FromLog(l)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := listcrdt.New()
			if err := d.Merge(ops); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig8MergeOT(b *testing.B) {
	eachTrace(b, func(b *testing.B, name string, l *oplog.Log) {
		if l.Len() > 50_000 && (name == "A1" || name == "A2") && benchScale > 0.02 {
			b.Skip("OT is quadratic on asynchronous traces; run via cmd/egbench")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ot.ReplayText(l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig8LoadCached measures reloading a saved document whose
// final text is cached (Eg-walker's and OT's load path). CRDT load time
// equals CRDT merge time (BenchmarkFig8MergeRefCRDT).
func BenchmarkFig8LoadCached(b *testing.B) {
	eachTrace(b, func(b *testing.B, _ string, l *oplog.Log) {
		text, err := core.ReplayRope(l)
		if err != nil {
			b.Fatal(err)
		}
		data, err := colenc.SaveDocument(l, text, nil, colenc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			doc, err := colenc.LoadDocument(data)
			if err != nil {
				b.Fatal(err)
			}
			if doc.Text.Len() != text.Len() {
				b.Fatal("the loaded text differs")
			}
		}
	})
}

// --- Figure 9: §3.5 optimisations on/off ---------------------------------

func BenchmarkFig9OptEnabled(b *testing.B) {
	eachTrace(b, func(b *testing.B, _ string, l *oplog.Log) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ReplayRope(l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig9OptDisabled(b *testing.B) {
	eachTrace(b, func(b *testing.B, _ string, l *oplog.Log) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ReplayRopeNoOpt(l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- §3.8 span-wise replay vs the per-unit reference ---------------------
//
// BenchmarkSpanReplay / BenchmarkUnitRefReplay are the two ends of the
// run-length pipeline: identical output, span-at-a-time versus
// unit-at-a-time internal state. Compare ns/op (and allocs/op) per trace;
// cmd/egbench core writes the same comparison plus peak heap to
// BENCH_core.json.

func BenchmarkSpanReplay(b *testing.B) {
	eachTrace(b, func(b *testing.B, _ string, l *oplog.Log) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ReplayRope(l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkUnitRefReplay(b *testing.B) {
	eachTrace(b, func(b *testing.B, _ string, l *oplog.Log) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ReplayRopeUnitRef(l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 10: memory is measured by cmd/egbench fig10 -----------------
// (testing.B reports allocation totals, not retained/peak heap; the
// B/op columns of the Fig 8 benchmarks give the allocation side.)

// --- Figures 11/12: encoded file sizes -----------------------------------

func BenchmarkFig11Encode(b *testing.B) {
	eachTrace(b, func(b *testing.B, _ string, l *oplog.Log) {
		text, err := core.ReplayRope(l)
		if err != nil {
			b.Fatal(err)
		}
		var size, cachedSize int
		for i := 0; i < b.N; i++ {
			data, err := colenc.SaveDocument(l, nil, nil, colenc.Options{})
			if err != nil {
				b.Fatal(err)
			}
			size = len(data)
			if data, err = colenc.SaveDocument(l, text, nil, colenc.Options{}); err != nil {
				b.Fatal(err)
			}
			cachedSize = len(data)
		}
		b.ReportMetric(float64(size), "bytes")
		b.ReportMetric(float64(cachedSize), "cached-bytes")
		b.ReportMetric(float64(len(string(l.Content()))), "inserted-bytes")
	})
}

func BenchmarkFig12EncodePruned(b *testing.B) {
	eachTrace(b, func(b *testing.B, _ string, l *oplog.Log) {
		text, err := core.ReplayText(l)
		if err != nil {
			b.Fatal(err)
		}
		deleted, err := core.Deleted(l)
		if err != nil {
			b.Fatal(err)
		}
		var size int
		for i := 0; i < b.N; i++ {
			data, err := colenc.SaveDocument(l, nil, deleted, colenc.Options{})
			if err != nil {
				b.Fatal(err)
			}
			size = len(data)
		}
		b.ReportMetric(float64(size), "bytes")
		b.ReportMetric(float64(len(text)), "doc-bytes")
	})
}

// --- §3.7 complexity: two branches of n events each ----------------------

func twoBranchLog(b *testing.B, n int) *oplog.Log {
	b.Helper()
	l := oplog.New()
	sp, err := l.AddInsert("base", nil, 0, "0123456789")
	if err != nil {
		b.Fatal(err)
	}
	base := causal.Frontier{sp.End - 1}
	head := base.Clone()
	for i := 0; i < n; i++ {
		s, err := l.AddInsert("a", head, i, "a")
		if err != nil {
			b.Fatal(err)
		}
		head = causal.Frontier{s.End - 1}
	}
	head = base.Clone()
	for i := 0; i < n; i++ {
		s, err := l.AddInsert("b", head, 10+i, "b")
		if err != nil {
			b.Fatal(err)
		}
		head = causal.Frontier{s.End - 1}
	}
	return l
}

func BenchmarkComplexityMergeEgwalker(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l := twoBranchLog(b, n)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ReplayRope(l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkComplexityMergeOT(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l := twoBranchLog(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ot.ReplayText(l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Public API overheads -------------------------------------------------

func BenchmarkDocLocalInsert(b *testing.B) {
	d := NewDoc("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.Insert(d.Len(), "x"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDocRealtimeApply(b *testing.B) {
	// A remote peer types; we apply each event as it arrives (the
	// linear fast path).
	src := NewDoc("src")
	for i := 0; i < 1000; i++ {
		if err := src.Insert(src.Len(), "y"); err != nil {
			b.Fatal(err)
		}
	}
	evs := src.Events()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dst := NewDoc("dst")
		b.StartTimer()
		for j := range evs {
			if _, err := dst.Apply(evs[j : j+1]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Runs across the Doc boundary -----------------------------------------
//
// Apply, Save, Load and EventsSince on a linear history (S1: every event
// critical, so the walker has nothing to do and the boundary is all there
// is) and a concurrent one (C1). ns/event and allocs/event are the rows
// to compare across a change to the boundary; the bench/ program times
// the same calls end to end.

// boundaryDocs runs fn on one document per history.
func boundaryDocs(b *testing.B, fn func(b *testing.B, d *Doc)) {
	traces := loadBenchTraces(b)
	for _, name := range []string{"S1", "C1"} {
		l := traces[name]
		b.Run(name, func(b *testing.B) {
			rp, err := core.ReplayRope(l)
			if err != nil {
				b.Fatal(err)
			}
			fn(b, &Doc{log: l, text: rp, agent: "bench"})
		})
	}
}

// perEvent times loop, which handles events events per iteration, and
// reports time and allocations per event next to the per-op columns.
func perEvent(b *testing.B, events int, loop func()) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
}

// BenchmarkDocApply merges a whole history into a fresh replica in
// arrival batches of 4096 events.
func BenchmarkDocApply(b *testing.B) {
	boundaryDocs(b, func(b *testing.B, d *Doc) {
		var batches [][]Event
		for evs := d.Events(); len(evs) > 0; evs = evs[min(4096, len(evs)):] {
			batches = append(batches, evs[:min(4096, len(evs))])
		}
		perEvent(b, d.NumEvents(), func() {
			dst := NewDoc("dst")
			for _, batch := range batches {
				if _, err := dst.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
			if dst.Len() != d.Len() {
				b.Fatal("merged document differs")
			}
		})
	})
}

func BenchmarkDocSave(b *testing.B) {
	boundaryDocs(b, func(b *testing.B, d *Doc) {
		var buf bytes.Buffer
		perEvent(b, d.NumEvents(), func() {
			buf.Reset()
			if err := d.Save(&buf, SaveOptions{CacheFinalDoc: true}); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(float64(buf.Len())/float64(d.NumEvents()), "bytes/event")
	})
}

func BenchmarkDocLoad(b *testing.B) {
	boundaryDocs(b, func(b *testing.B, d *Doc) {
		var buf bytes.Buffer
		if err := d.Save(&buf, SaveOptions{CacheFinalDoc: true}); err != nil {
			b.Fatal(err)
		}
		perEvent(b, d.NumEvents(), func() {
			got, err := Load(bytes.NewReader(buf.Bytes()), "loader")
			if err != nil {
				b.Fatal(err)
			}
			if got.NumEvents() != d.NumEvents() {
				b.Fatal("loaded document differs")
			}
		})
	})
}

// BenchmarkDocEventsSince exports the later half of the history: what a
// peer that fell behind is sent.
func BenchmarkDocEventsSince(b *testing.B) {
	boundaryDocs(b, func(b *testing.B, d *Doc) {
		half := d.log.Graph.FrontierOf([]causal.LV{causal.LV(d.NumEvents() / 2)})
		var since Version
		for _, lv := range half {
			since = append(since, EventID(d.log.Graph.IDOf(lv)))
		}
		evs, err := d.EventsSince(since)
		if err != nil {
			b.Fatal(err)
		}
		perEvent(b, len(evs), func() {
			if _, err := d.EventsSince(since); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// BenchmarkDocKeystrokes types into a fork of each history the way the
// bench/ program's typist does: a word inserted, or a few backspaces a key
// at a time, and after each burst EventsSince the version before it —
// what a client does before it uploads the burst.
func BenchmarkDocKeystrokes(b *testing.B) {
	boundaryDocs(b, func(b *testing.B, src *Doc) {
		d, err := src.Fork("typist")
		if err != nil {
			b.Fatal(err)
		}
		type burst struct {
			word string
			back int
		}
		var script []burst
		events := 0
		for i, w := range strings.Fields(strings.Repeat("the quick brown fox jumps over the lazy dog ", 4)) {
			script = append(script, burst{word: w + " "})
			events += len(w) + 1
			if i%2 == 1 {
				script = append(script, burst{back: 1 + i%4})
				events += 1 + i%4
			}
		}
		round := 0
		perEvent(b, events, func() {
			// Somewhere new each round, with room to backspace into.
			cursor := 64 + round*7919%(d.Len()-63)
			round++
			for _, k := range script {
				v := d.Version()
				if k.word != "" {
					err = d.Insert(cursor, k.word)
					cursor += len(k.word)
				}
				for range k.back {
					if cursor--; err == nil {
						err = d.Delete(cursor, 1)
					}
				}
				if err != nil {
					b.Fatal(err)
				}
				if _, err := d.EventsSince(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkDocApplySmallConcurrent applies five remote keystrokes,
// concurrent with five local ones, to a loaded document of 1k, 10k and
// 100k events. Only Apply is timed. What it costs must not depend on how
// much history lies before the concurrency: the 100k row stays within 3x
// of the 1k row.
func BenchmarkDocApplySmallConcurrent(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			src := NewDoc("a")
			for src.NumEvents() < n {
				if err := src.Insert(src.Len(), strings.Repeat("lorem ipsum ", 10)[:100]); err != nil {
					b.Fatal(err)
				}
			}
			var file bytes.Buffer
			if err := src.Save(&file, SaveOptions{CacheFinalDoc: true}); err != nil {
				b.Fatal(err)
			}
			var d *Doc
			seq := 0
			remote := make([]Event, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if i%64 == 0 {
					// Start again from the loaded document now and then, so
					// the history stays n events long.
					var err error
					if d, err = Load(bytes.NewReader(file.Bytes()), "b"); err != nil {
						b.Fatal(err)
					}
					seq = 0
				}
				// A keystroke that merges the last round's two heads, so each
				// round's concurrency starts from a critical version.
				if err := d.Insert(d.Len(), " "); err != nil {
					b.Fatal(err)
				}
				parents := d.Version()
				if err := d.Insert(d.Len(), "local"); err != nil {
					b.Fatal(err)
				}
				for k := range remote {
					id := EventID{Agent: "r", Seq: seq}
					remote[k] = Event{ID: id, Parents: parents, Insert: true, Pos: k, Content: 'r'}
					parents = Version{id}
					seq++
				}
				b.StartTimer()
				if _, err := d.Apply(remote); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDocApplyOpenBubble merges the next 64-event block of an offline
// branch into a replica that has merged 1k, 10k and 100k events of it
// already, all of them concurrent with a word of its own: one open bubble.
// Only Apply is timed. What a block costs must not depend on how much of
// the bubble is there: the 100k row stays within 3x of the 1k row. (With
// no section kept between calls it was the bubble that was paid for, 60x
// from row to row.)
func BenchmarkDocApplyOpenBubble(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			// The bubble grows as blocks are merged; start again from a copy
			// every few blocks so that it stays about n events. A copy has no
			// section kept, so its first block, which rebuilds one, is not
			// timed.
			const cycle = 8
			src, next := openBubbleDoc(b, n)
			var blocks [cycle][]Event
			for i := range blocks {
				blocks[i] = next()
			}
			var file bytes.Buffer
			if err := src.Save(&file, SaveOptions{CacheFinalDoc: true}); err != nil {
				b.Fatal(err)
			}
			var d *Doc
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % (cycle - 1)
				if k == 0 {
					b.StopTimer()
					var err error
					if d, err = Load(bytes.NewReader(file.Bytes()), "me"); err != nil {
						b.Fatal(err)
					}
					if _, err := d.Apply(blocks[0]); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := d.Apply(blocks[k+1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
