package main

import (
	"bufio"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// --- the estimator ---------------------------------------------------------

// syntheticMetric has `units` units whose true cost is base(u); round 0 is
// slow everywhere (cold caches) and every seventh sample is doubled (a
// neighbour took the core).
func syntheticMetric(units, rounds int) (*floorMetric, int64) {
	m := &floorMetric{name: "synthetic", unit: "ns/op", scale: 1, work: float64(units)}
	var truth int64
	for u := 0; u < units; u++ {
		base := int64(1000 + 37*u)
		truth += base
		for r := 0; r < rounds; r++ {
			v := base + int64((u*31+r*17)%50) // jitter, never below base
			if r == 0 {
				v *= 3
			}
			if (u+r)%7 == 0 {
				v *= 2
			}
			if r == 11 {
				v = base // every unit is left alone once
			}
			m.add(u, v)
		}
	}
	return m, truth
}

func TestFloorIgnoresOutliersAndSlowFirstRound(t *testing.T) {
	m, truth := syntheticMetric(40, 30)
	got, err := m.floorNs(defaultMinRounds)
	if err != nil {
		t.Fatal(err)
	}
	if got != truth {
		t.Fatalf("floor = %d, want the true cost %d", got, truth)
	}
	if med := m.medianNs(); med <= truth {
		t.Fatalf("median %d should sit above the floor %d on these samples", med, truth)
	}
	v, err := m.value(defaultMinRounds)
	if err != nil || math.Abs(v-float64(truth)/40) > 1e-9 {
		t.Fatalf("value = %v, %v; want %v", v, err, float64(truth)/40)
	}
	if m.maxUnitFloorNs() != 1000+37*39 {
		t.Fatalf("longest unit floor = %d", m.maxUnitFloorNs())
	}
}

func TestFloorRefusesTooFewRounds(t *testing.T) {
	m, _ := syntheticMetric(5, defaultMinRounds-1)
	if _, err := m.floorNs(defaultMinRounds); err == nil {
		t.Fatalf("a floor over %d rounds was accepted; %d are required", defaultMinRounds-1, defaultMinRounds)
	}
	// One unit short of a round counts as that round missing.
	m, _ = syntheticMetric(5, defaultMinRounds)
	m.samples[3] = m.samples[3][:defaultMinRounds-1]
	if _, err := m.value(defaultMinRounds); err == nil {
		t.Fatal("a metric with one unit short of the required rounds was accepted")
	}
	if _, err := (&floorMetric{name: "empty"}).floorNs(1); err == nil {
		t.Fatal("a metric without samples was accepted")
	}
}

func TestUnitOverTheCapFailsTheRun(t *testing.T) {
	m := &floorMetric{name: "slow", unit: "ns/op", scale: 1, work: 1}
	for r := 0; r < defaultMinRounds; r++ {
		m.add(0, unitCapNs+int64(r)+1)
	}
	if err := noteMachine(&report{}, nil, []*floorMetric{m}); err == nil {
		t.Fatal("a unit whose floor is over the cap was reported")
	}
	m.add(0, unitCapNs)
	if err := noteMachine(&report{}, nil, []*floorMetric{m}); err != nil {
		t.Fatalf("a unit at the cap: %v", err)
	}
}

// TestIQRShareMatchesPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestIQRShareMatchesPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrShare(v, medianSorted(v)); math.Abs(got-1) > 1e-12 {
		t.Fatalf("iqrShare = %v, want (8.25 − 2.75) ÷ 5.5 = 1", got)
	}
}

func TestSelfTimesSplitOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "fanout_us_per_burst", StartNs: 100, EndNs: 200, Parent: -1},
		{Name: "netsync.SendRaw", StartNs: 100, EndNs: 110, Parent: 0},
		{Name: "server.fanout_wait", StartNs: 110, EndNs: 200, Parent: 0},
		// two subscribers, overlapping each other and the wait
		{Name: "netsync.RecvFrame", StartNs: 100, EndNs: 160, Parent: 0},
		{Name: "netsync.RecvFrame", StartNs: 100, EndNs: 190, Parent: 0},
		// a span that starts before its parent is clipped to it
		{Name: "doc.Apply", StartNs: 90, EndNs: 120, Parent: 2},
	}
	self := selfTimes(spans)["fanout_us_per_burst"]
	var sum int64
	for _, ns := range self {
		sum += ns
	}
	if sum < 99 || sum > 100 { // integer truncation may lose a nanosecond
		t.Fatalf("self times sum to %d ns, the unit took 100: %v", sum, self)
	}
	if self["fanout_us_per_burst"] != 0 {
		t.Fatalf("root fully covered by children has self time %d", self["fanout_us_per_burst"])
	}
	if self["doc.Apply"] == 0 {
		t.Fatalf("grandchild lost: %v", self)
	}
}

// --- the generator ----------------------------------------------------------

func TestGeneratorDeterminism(t *testing.T) {
	for _, s := range specs {
		s = s.scaled(0.3) // a deck of a few blocks has little to shuffle
		a, err := generate(s, 7, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		b, err := generate(s, 7, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(s, 8, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hashEvents(a.events) != hashEvents(b.events) || docText(a.final) != docText(b.final) {
			t.Errorf("%s: the same seed gave different documents", s.name)
		}
		if hashEvents(a.events) == hashEvents(c.events) {
			t.Errorf("%s: different seeds gave the same document", s.name)
		}
		// The deck fixes the counts: only the order depends on the seed.
		if len(a.events) != len(c.events) || len(a.events) != s.events {
			t.Errorf("%s: %d and %d events, want %d for every seed", s.name, len(a.events), len(c.events), s.events)
		}
		ins := func(evs []Event) (n int) {
			for _, e := range evs {
				if e.Insert {
					n++
				}
			}
			return
		}
		if ins(a.events) != ins(c.events) {
			t.Errorf("%s: insert count depends on the seed (%d vs %d)", s.name, ins(a.events), ins(c.events))
		}
	}
}

func TestPinnedHashesCoverEveryDocument(t *testing.T) {
	for _, s := range specs {
		if len(pinnedHashes[s.name]) != s.docs {
			t.Errorf("%s: %d pinned hashes for %d documents; regenerate hashes_seed1.go with -pin", s.name, len(pinnedHashes[s.name]), s.docs)
		}
	}
	// One real document per workload, against its pin.
	for _, s := range specs {
		g, err := generate(s, pinnedSeed, s.docs-1, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := docHash{hashEvents(g.events), hashString(docText(g.final))}
		if want := pinnedHashes[s.name][s.docs-1]; got != want {
			t.Errorf("%s: last document hashes to %x, pinned %x", s.name, got, want)
		}
	}
}

// --- the whole benchmark, tiny ----------------------------------------------

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// mayBeZeroOrNegative: counts that are expected to be zero, and
// differences of two floors.
func mayBeZeroOrNegative(name string) bool {
	switch name {
	case "server.lazy_materializations", "server.coalesced_frames", "server.severs", "server.resume_fallbacks",
		"server.fanout_us_per_extra_subscriber", "doc.apply_glue_ns_per_event", "core.xops_per_event", "machine.steal_frac":
		return true
	}
	return strings.HasPrefix(name, "trace.overhead_frac.")
}

func TestSmokeAllWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bj.Workloads), len(specs))
	}
	for _, w := range bj.Workloads {
		s, ok := specByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, the program does not have it", w.Name)
		}
		// Not parallel: a run switches the process's collector off and on and
		// reads heap differences.
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{spec: s.scaled(0.04), seed: 3, seconds: 60, rounds: 3, minRounds: 3, setupReps: 1, quiet: true,
				diag: diagSizes{idleConns: 20, openLoopBursts: 100, pipelinedRuns: 2}}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("end-to-end run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(bj.EndToEnd) {
				t.Errorf("%d end-to-end metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(bj.EndToEnd))
			}
			for _, m := range bj.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("end-to-end metric %s missing", m.Name)
					continue
				}
				if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0 {
					t.Errorf("%s = %v %q, want a positive finite number of %q", m.Name, got.Value, got.Unit, m.Unit)
				}
			}

			cfg.trace = true
			cfg.traceFile = filepath.Join(".work", "test-trace-"+w.Name+".jsonl")
			defer os.Remove(cfg.traceFile)
			res, err = run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(bj.PerLayer) {
				t.Errorf("%d per-layer metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(bj.PerLayer))
			}
			for _, m := range bj.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
					continue
				}
				if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %v %q, want a finite number of %q", m.Name, got.Value, got.Unit, m.Unit)
				}
				if got.Value <= 0 && !mayBeZeroOrNegative(m.Name) {
					t.Errorf("%s = %v, want a positive number", m.Name, got.Value)
				}
			}
			checkTraceFile(t, cfg.traceFile)
		})
	}
}

// checkTraceFile: header, then one span per line; ids count up, a parent
// precedes its children, shares their round and unit, and contains their
// start.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("empty trace file")
	}
	var head struct {
		Schema string `json:"schema"`
		Spans  int    `json:"spans"`
	}
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil || head.Schema != "egwalker-bench-trace/1" {
		t.Fatalf("trace header %q: %v", sc.Text(), err)
	}
	type line struct {
		ID int `json:"id"`
		span
	}
	var spans []line
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		spans = append(spans, l)
	}
	if len(spans) != head.Spans || len(spans) == 0 {
		t.Fatalf("trace has %d spans, header says %d", len(spans), head.Spans)
	}
	roots := 0
	for i, s := range spans {
		if s.ID != i || s.Name == "" || s.EndNs < s.StartNs {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent < 0 {
			roots++
			continue
		}
		if int(s.Parent) >= i {
			t.Fatalf("span %d names parent %d, which does not precede it", i, s.Parent)
		}
		p := spans[s.Parent]
		if p.Round != s.Round || p.Unit != s.Unit {
			t.Fatalf("span %d (round %d unit %d) under parent of round %d unit %d", i, s.Round, s.Unit, p.Round, p.Unit)
		}
	}
	if roots == 0 || roots == len(spans) {
		t.Fatalf("%d roots among %d spans", roots, len(spans))
	}
}

// --- the adapter rule --------------------------------------------------------

func TestOnlyAdapterImportsTheRepository(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if file == "adapter.go" {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "egwalker" || strings.HasPrefix(p, "egwalker/") {
				t.Errorf("%s imports %s; every repository symbol belongs in adapter.go", file, p)
			}
		}
	}
}
