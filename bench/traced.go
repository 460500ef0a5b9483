package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The traced run. Each round runs the end-to-end script twice — once
// plain, once with spans recorded around every call into a layer, the order
// alternating — and then the per-layer units. End-to-end numbers are never
// reported from here: the two scripts exist to measure what tracing costs
// (trace.overhead_frac.*) and to split each end-to-end unit into its
// layers' self times.

const (
	tracedRounds    = 10
	tracedMinRounds = 8
	traceFileRounds = 3 // rounds whose spans are written to the trace file
)

func runTraced(cfg config, c *corpusFixtures, workRoot string, rep *report) (*result, error) {
	plain, traced := newScript(c, workRoot, true), newScript(c, workRoot, true)
	layers, err := newLayerScript(c, workRoot, plain)
	if err != nil {
		return nil, err
	}
	openBursts, err := scriptBursts(c.spec, c.seed, c.docs[0], "openloop", cfg.diag.openLoopBursts)
	if err != nil {
		return nil, err
	}
	tr := newTracer(600000)
	plainT, tracedT := &timer{}, &timer{tr: tr}
	var kernelNs []int64
	_, err = runRounds(cfg, rep, newKernel(), &kernelNs, func(r int) error {
		a, at, b, bt := plain, plainT, traced, tracedT
		if r%2 == 1 {
			a, at, b, bt = traced, tracedT, plain, plainT
		}
		if err := a.round(r, at); err != nil {
			return err
		}
		if err := b.round(r, bt); err != nil {
			return err
		}
		return layers.round(r, plainT)
	})
	if err != nil {
		return nil, err
	}
	if err := noteMachine(rep, kernelNs, plain.timings[:]); err != nil {
		return nil, err
	}
	ls := layers.ls
	ls.set("machine.kernel_ms_floor", float64(minOf(kernelNs))/1e6, "ms")
	ls.set("machine.kernel_ms_median", float64(medianOf(kernelNs))/1e6, "ms")
	ls.set("machine.steal_frac", rep.stealFrac, "frac")

	// What tracing costs, per end-to-end timing.
	for i, m := range plain.timings {
		p, err := m.floorNs(cfg.minRounds)
		if err != nil {
			return nil, err
		}
		t, err := traced.timings[i].floorNs(cfg.minRounds)
		if err != nil {
			return nil, err
		}
		ls.set("trace.overhead_frac."+m.name, float64(t)/float64(p)-1, "frac")
	}
	// The two timings that are diagnostics, not end-to-end metrics.
	for i, m := range plain.timings {
		if timingNames[i].diag {
			v, err := m.value(cfg.minRounds)
			if err != nil {
				return nil, err
			}
			ls.set("server."+m.name, v, m.unit)
		}
	}
	if err := applyGlue(plain, layers); err != nil {
		return nil, err
	}

	// One-shot counts and the queueing diagnostics.
	t0 := time.Now()
	var diagSrv MetricsSnapshot
	if err := diagnostics(c, workRoot, cfg.diag, openBursts, ls, plain, &diagSrv); err != nil {
		return nil, err
	}
	rep.phase("diags", t0)

	// Server counters: the join and fan-out hosts never build a document.
	var coldHosts, rejoinHosts, allHosts MetricsSnapshot
	for _, sc := range []*script{plain, traced} {
		addCounters(&coldHosts, sc.joinSrv)
		addCounters(&coldHosts, sc.fanoutSrv)
		addCounters(&rejoinHosts, sc.rejoinSrv)
	}
	for _, m := range []MetricsSnapshot{coldHosts, rejoinHosts, diagSrv} {
		addCounters(&allHosts, m)
	}
	ls.set("server.lazy_materializations", float64(coldHosts.LazyMaterializations), "count")
	ls.set("server.block_serves", float64(coldHosts.BlockServes), "count")
	ls.set("server.coalesced_frames", float64(allHosts.CoalescedFrames), "count")
	ls.set("server.severs", float64(allHosts.PeersSevered), "count")
	ls.set("server.resume_fallbacks", float64(allHosts.ResumeFallbacks), "count")
	rep.envf("server", "join+fan-out hosts: %d lazy materializations, %d block serves; rejoin hosts: %d materializations, %d summary resumes; all hosts: %d severs, %d coalesced frames, %d resume fallbacks",
		coldHosts.LazyMaterializations, coldHosts.BlockServes, rejoinHosts.LazyMaterializations, rejoinHosts.SummaryResumes,
		allHosts.PeersSevered, allHosts.CoalescedFrames, allHosts.ResumeFallbacks)

	if err := reportSpans(cfg, tr, traced, rep); err != nil {
		return nil, err
	}

	metrics, err := ls.results(cfg.minRounds)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: metrics}
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	res.Correct = res.Failed == 0
	for _, f := range append(plain.failures, traced.failures...) {
		rep.envf("FAILED", "%s", f)
	}
	return res, nil
}

// applyGlue derives doc.apply_glue_ns_per_event: what Doc.Apply costs per
// event beyond the stages it is made of, re-created from outside on the
// same documents (oplog build, transform, rope apply). The merge floor is
// taken over the layer documents' units only.
func applyGlue(plain *script, l *layerScript) error {
	inLayer := make(map[int]bool)
	events := 0.0
	for _, ld := range l.docs {
		inLayer[ld.fx.idx] = true
		events += float64(ld.fx.mergeEvents)
	}
	var mergeNs int64
	for u, s := range plain.timings[mMerge].samples {
		if inLayer[plain.mergeUnitDoc[u]] {
			mergeNs += minOf(s)
		}
	}
	glue := float64(mergeNs) / events
	for _, stage := range []string{"oplog.build_ns_per_event", "core.transform_ns_per_event"} {
		v, err := l.ls.floors[stage].value(0)
		if err != nil {
			return err
		}
		glue -= v
	}
	// rope apply is per transformed op; bring it to per event.
	rope := l.ls.floors["rope.apply_ns_per_xop"]
	ropeNs, err := rope.floorNs(0)
	if err != nil {
		return err
	}
	var docEvents float64
	for _, ld := range l.docs {
		docEvents += float64(ld.fx.n)
	}
	glue -= float64(ropeNs) / docEvents
	l.ls.set("doc.apply_glue_ns_per_event", glue, "ns/event")
	return nil
}

// diagnostics fills in the rows measured once.
func diagnostics(c *corpusFixtures, workRoot string, sizes diagSizes, openBursts []fanoutBurst, ls *layerSet, sc *script, srv *MetricsSnapshot) error {
	// allocation counts of one merge and one load per layer-sized document
	var mergeBytes, mergeObjs, loadBytes, events, mergeEvents float64
	for _, fx := range c.docs[:min(len(c.docs), 4)] {
		m := newDoc("merger")
		if fx.mergeStart != nil {
			var err error
			if m, err = docLoad(fx.mergeStart, "merger"); err != nil {
				return err
			}
		}
		b0, o0 := allocCounters()
		for _, batch := range fx.mergeBatches {
			if _, err := docApply(m, batch); err != nil {
				return err
			}
		}
		b1, o1 := allocCounters()
		if _, err := docLoad(fx.file, "reader"); err != nil {
			return err
		}
		b2, _ := allocCounters()
		mergeBytes += float64(b1 - b0)
		mergeObjs += float64(o1 - o0)
		loadBytes += float64(b2 - b1)
		events += float64(fx.n)
		mergeEvents += float64(fx.mergeEvents)
	}
	ls.set("doc.merge_alloc_bytes_per_event", mergeBytes/mergeEvents, "count")
	ls.set("doc.merge_allocs_per_event", mergeObjs/mergeEvents, "count")
	ls.set("doc.load_alloc_bytes_per_event", loadBytes/events, "count")

	// burst-sized batches, as journaled and fanned out
	var burstBytes, burstEvents float64
	for _, fx := range c.docs {
		for _, b := range fx.fanout {
			burstBytes += float64(len(b.raw))
			burstEvents += float64(b.n)
		}
	}
	ls.set("colenc.burst_bytes_per_event", burstBytes/burstEvents, "count")

	heap, err := journalDocHeap(c)
	if err != nil {
		return err
	}
	ls.set("store.journal_doc_heap_bytes", heap, "count")
	connHeap, snap, err := idleConnHeap(c, workRoot, sizes.idleConns)
	if err != nil {
		return err
	}
	addCounters(srv, snap)
	ls.set("server.conn_heap_bytes_per_idle_conn", connHeap, "count")

	s1, err := ls.floors["server.fanout_us_per_burst_s1"].value(0)
	if err != nil {
		return err
	}
	s64, err := ls.floors["server.fanout_us_per_burst_s64"].value(0)
	if err != nil {
		return err
	}
	ls.set("server.fanout_us_per_extra_subscriber", (s64-s1)/63, "us")

	med, q1, q3, err := pipelined(c, workRoot, sizes.pipelinedRuns, srv)
	if err != nil {
		return err
	}
	ls.set("server.pipelined_events_per_s", med, "1/s")
	ls.set("server.pipelined_events_per_s_q1", q1, "1/s")
	ls.set("server.pipelined_events_per_s_q3", q3, "1/s")
	p50, p99, late, err := openLoop(c, workRoot, openBursts, srv)
	if err != nil {
		return err
	}
	ls.set("server.openloop_p50_us", p50, "us")
	ls.set("server.openloop_p99_us", p99, "us")
	ls.set("server.openloop_late_p99_us", late, "us")
	return references(c, ls, sc)
}

// reportSpans writes the trace file and prints, per end-to-end timing, how
// its traced time splits into layers' self times.
func reportSpans(cfg config, tr *tracer, traced *script, rep *report) error {
	spans := tr.recorded()
	if n := tr.dropped.Load(); n > 0 {
		return fmt.Errorf("trace: %d spans dropped, the span buffer is too small", n)
	}
	self := selfTimes(spans)
	for _, m := range traced.timings {
		var root int64
		for _, s := range spans {
			if s.Parent < 0 && s.Name == m.name {
				root += s.EndNs - s.StartNs
			}
		}
		byLayer := make(map[string]int64)
		var sum int64
		for name, ns := range self[m.name] {
			byLayer[layerOf(name)] += ns
			sum += ns
		}
		layers := make([]string, 0, len(byLayer))
		for l := range byLayer {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
		var parts []string
		for _, l := range layers {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*float64(byLayer[l])/float64(sum)))
		}
		rep.envf("self "+m.name, "%s (Σ self ÷ Σ unit = %.3f)", strings.Join(parts, ", "), float64(sum)/float64(root))
		if root == 0 || float64(sum) < 0.9*float64(root) || float64(sum) > 1.1*float64(root) {
			return fmt.Errorf("trace: self times of %s sum to %d ns, its units to %d ns", m.name, sum, root)
		}
	}
	path := cfg.traceFile
	if path == "" {
		path = filepath.Join(".out", fmt.Sprintf("trace-%s-%d.jsonl", cfg.spec.name, cfg.seed))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	// The file holds the first rounds only; the split above used them all.
	keep := spans[:0:0]
	remap := make(map[int32]int32)
	for i, s := range spans {
		if s.Round < traceFileRounds {
			remap[int32(i)] = int32(len(keep))
			keep = append(keep, s)
		}
	}
	for i := range keep {
		if keep[i].Parent >= 0 {
			keep[i].Parent = remap[keep[i].Parent]
		}
	}
	if err := writeTrace(path, cfg.spec.name, cfg.seed, keep); err != nil {
		return err
	}
	rep.envf("trace_file", "%s (%d spans of rounds 0–%d; %d recorded)", path, len(keep), traceFileRounds-1, len(spans))
	return nil
}
