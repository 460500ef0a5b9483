package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The noise-floor estimator. On a shared two-core box the median of a
// wall-clock timing moves by 15–25 % between processes; the fastest of many
// executions of a short, fixed piece of work moves far less. A timing
// metric is therefore a script of units (each ≤ ~20 ms of fixed work),
// every unit runs once per round, and the metric is
//
//	Σ_units min_rounds(time) ÷ work
//
// Rounds are interleaved (a round runs every unit of every metric), so all
// metrics sample the same wall-clock window. Rounds run until the wall cap
// (-seconds): the floors of a 25-round window spread twice as far between
// windows as those of a 75-round window, so a run takes every round its
// time allows (100–200 on the frozen corpora).

const (
	defaultRounds    = 400 // more than any run finishes inside its wall cap
	defaultMinRounds = 25
	unitCapNs        = 25e6 // a run with a unit whose floor exceeds this fails
)

// floorMetric collects one timing metric's samples: samples[unit][round].
type floorMetric struct {
	name    string
	unit    string  // of the reported value
	scale   float64 // reported = floor_ns * scale / work
	work    float64 // events, bursts, ... the floor is divided by
	samples [][]int64
}

func (m *floorMetric) add(unit int, ns int64) {
	for len(m.samples) <= unit {
		m.samples = append(m.samples, nil)
	}
	m.samples[unit] = append(m.samples[unit], ns)
}

// rounds is how many rounds every unit has completed.
func (m *floorMetric) rounds() int {
	if len(m.samples) == 0 {
		return 0
	}
	r := math.MaxInt
	for _, s := range m.samples {
		r = min(r, len(s))
	}
	return r
}

// floorNs is Σ_units min_rounds; it refuses below minRounds rounds.
func (m *floorMetric) floorNs(minRounds int) (int64, error) {
	if r := m.rounds(); r < minRounds {
		return 0, fmt.Errorf("%s: %d rounds completed, need %d", m.name, r, minRounds)
	}
	var sum int64
	for _, s := range m.samples {
		sum += minOf(s)
	}
	return sum, nil
}

// value is the reported number.
func (m *floorMetric) value(minRounds int) (float64, error) {
	ns, err := m.floorNs(minRounds)
	if err != nil {
		return 0, err
	}
	if m.work <= 0 {
		return 0, fmt.Errorf("%s: no work recorded", m.name)
	}
	return float64(ns) * m.scale / m.work, nil
}

// maxUnitFloorNs is the slowest unit's floor: the unit-length rule.
func (m *floorMetric) maxUnitFloorNs() int64 {
	var worst int64
	for _, s := range m.samples {
		if len(s) > 0 {
			worst = max(worst, minOf(s))
		}
	}
	return worst
}

// medianNs is Σ_units median_rounds: what a median-of-wall-time metric
// would have reported, kept only to show the noise index.
func (m *floorMetric) medianNs() int64 {
	var sum int64
	for _, s := range m.samples {
		if len(s) > 0 {
			sum += medianOf(s)
		}
	}
	return sum
}

func minOf(s []int64) int64 {
	m := s[0]
	for _, v := range s[1:] {
		m = min(m, v)
	}
	return m
}

func medianOf(s []int64) int64 {
	c := append([]int64(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[len(c)/2]
}

// timer runs timed units. The collector never starts inside one: it is
// switched off for the whole rounds phase and run by hand, untimed, at
// document boundaries (collect).
type timer struct {
	tr      *tracer // nil: untraced
	timedNs int64   // wall time spent inside timed units so far
}

// run times fn as unit `unit` of metric m. With a tracer it also records
// the unit's root span and hands it to fn as the parent of the layer
// spans.
func (t *timer) run(m *floorMetric, round, unit int, fn func(parent int32) error) error {
	root := t.tr.begin(m.name, -1, round, unit)
	start := time.Now()
	err := fn(root)
	ns := time.Since(start).Nanoseconds()
	t.tr.end(root)
	if err != nil {
		return fmt.Errorf("%s unit %d round %d: %w", m.name, unit, round, err)
	}
	m.add(unit, ns)
	t.timedNs += ns
	return nil
}

// gcOff switches the collector off and returns the function restoring it.
func gcOff() func() {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// collect runs one full collection, untimed, between documents.
func collect() { runtime.GC() }

// heapAlloc is the live-plus-unswept heap right now.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedHeap is the heap after two full collections (the second frees
// what finalizers and sweeping of the first released).
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return heapAlloc()
}

// allocCounters reads cumulative allocation counts.
func allocCounters() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// kernel is the machine probe: a fixed xorshift scatter over 8 MB, about
// ten milliseconds of work that touches memory the way the merge does. It
// runs once per round; its median ÷ floor is the run's noise index.
type kernel struct {
	buf []uint64
}

func newKernel() *kernel { return &kernel{buf: make([]uint64, 1<<20)} }

func (k *kernel) run() uint64 {
	x := uint64(0x2545f4914f6cdd1d)
	mask := uint64(len(k.buf) - 1)
	var acc uint64
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		k.buf[j] += x
		acc ^= k.buf[j]
	}
	return acc
}
