package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
)

// Spans are recorded by the benchmark's own files, around each call into a
// layer; spans inside the program are a later change. They live in a
// preallocated slice and are written out when the run ends.

// span is one timed call. Parent is an index into the span list (-1: a
// unit's root span). Spans of one unit share round and unit.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Round   int32  `json:"round"`
	Unit    int32  `json:"unit"`
}

// tracer records spans; a nil tracer records nothing, so untraced units
// pay one nil check per call site.
type tracer struct {
	spans []span
	n     atomic.Int64
	// dropped counts spans that found the slice full.
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

// begin opens a span and returns its index (-1 when not recording).
// Subscriber goroutines call it concurrently.
func (t *tracer) begin(name string, parent int32, round, unit int) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, StartNs: nowNs(), Parent: parent, Round: int32(round), Unit: int32(unit)}
	return int32(i)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = nowNs()
}

// add records a finished span under parent with explicit times: a
// subscriber only learns which unit a frame belonged to once it arrives.
func (t *tracer) add(name string, parent int32, start, end int64) {
	if id := t.child(name, parent); id >= 0 {
		t.spans[id].StartNs, t.spans[id].EndNs = start, end
	}
}

// child opens a span under parent, inheriting its round and unit.
func (t *tracer) child(name string, parent int32) int32 {
	if t == nil || parent < 0 {
		return -1
	}
	p := &t.spans[parent]
	return t.begin(name, parent, int(p.Round), int(p.Unit))
}

func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

// selfTimes returns, per root-span name (an e2e metric) and per span name
// under it, the summed self time: a span's duration minus the part of it
// that its child spans cover. Children may overlap each other (eight
// subscribers receive at once): the covered part is the union of the child
// intervals clipped to the parent, and an instant covered by k children
// counts 1/k for each, so the self times under a root always add up to the
// root's wall time.
func selfTimes(spans []span) map[string]map[string]int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 && s.EndNs != 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	// lo/hi: the span clipped to its ancestors; weight: the share of its
	// clipped duration it is credited with (1 unless it overlaps siblings
	// or its parent was itself scaled down).
	n := len(spans)
	lo, hi := make([]int64, n), make([]int64, n)
	weight := make([]float64, n)
	covered := make([]float64, n) // wall time of span i its children cover
	var walk func(i int32)
	walk = func(i int32) {
		kids := children[i]
		type edge struct {
			at    int64
			open  bool
			child int32
		}
		edges := make([]edge, 0, 2*len(kids))
		for _, k := range kids {
			lo[k], hi[k] = max(spans[k].StartNs, lo[i]), min(spans[k].EndNs, hi[i])
			if hi[k] > lo[k] {
				edges = append(edges, edge{lo[k], true, k}, edge{hi[k], false, k})
			} else {
				hi[k] = lo[k]
			}
		}
		sort.Slice(edges, func(x, y int) bool { return edges[x].at < edges[y].at })
		credit := make(map[int32]float64, len(kids))
		active := make(map[int32]bool, len(kids))
		var prev int64
		for _, e := range edges {
			if len(active) > 0 && e.at > prev {
				seg := float64(e.at - prev)
				covered[i] += seg
				for k := range active {
					credit[k] += seg / float64(len(active))
				}
			}
			prev = e.at
			if e.open {
				active[e.child] = true
			} else {
				delete(active, e.child)
			}
		}
		for _, k := range kids {
			if d := hi[k] - lo[k]; d > 0 {
				weight[k] = weight[i] * credit[k] / float64(d)
			}
			walk(k)
		}
	}
	out := make(map[string]map[string]int64)
	var add func(root string, i int32)
	add = func(root string, i int32) {
		self := (float64(hi[i]-lo[i]) - covered[i]) * weight[i]
		out[root][spans[i].Name] += int64(self)
		for _, k := range children[i] {
			add(root, k)
		}
	}
	for i, s := range spans {
		if s.Parent >= 0 || s.EndNs == 0 {
			continue // not a root, or a unit that failed before closing
		}
		lo[i], hi[i], weight[i] = s.StartNs, s.EndNs, 1
		walk(int32(i))
		if out[s.Name] == nil {
			out[s.Name] = make(map[string]int64)
		}
		add(s.Name, int32(i))
	}
	return out
}

// layerOf maps a span name ("doc.Apply", "netsync.RecvFrame") to its
// layer; a root span (an e2e metric name) is the benchmark's own glue.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// writeTrace writes the spans as JSON lines: a header line, then one span
// per line with its index.
func writeTrace(path string, workload string, seed uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"schema\":\"egwalker-bench-trace/1\",\"workload\":%q,\"seed\":%d,\"spans\":%d}\n", workload, seed, len(spans))
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if err := enc.Encode(struct {
			ID int `json:"id"`
			span
		}{i, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
