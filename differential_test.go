package egwalker_test

// Differential tests pinning span-wise replay to the per-unit reference
// across every synthetic trace spec (the paper's S1–S3/C1–C2/A1–A2
// workload classes): byte-identical documents from every replay
// configuration, and a span stream that expands to exactly the per-unit
// reference stream. The simulator scenarios run the same check through
// internal/sim's oracle; the fuzz corpus runs it per input in
// fuzz_test.go.

import (
	"bytes"
	"os"
	"reflect"
	"strconv"
	"testing"

	"egwalker"
	"egwalker/internal/causal"
	"egwalker/internal/core"
	"egwalker/internal/oplog"
	"egwalker/internal/trace"
)

// diffScale returns the trace scale for differential runs: small enough
// for CI, overridable for deeper local sweeps.
func diffScale() float64 {
	if s := os.Getenv("EGW_DIFF_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.004
}

func TestDifferentialTraces(t *testing.T) {
	scale := diffScale()
	for _, spec := range trace.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			l, err := trace.Generate(spec.Scale(scale))
			if err != nil {
				t.Fatal(err)
			}
			spanStream, err := core.UnitStream(l, core.TransformAll)
			if err != nil {
				t.Fatalf("span transform: %v", err)
			}
			unitStream, err := core.UnitStream(l, core.TransformAllUnitRef)
			if err != nil {
				t.Fatalf("unit-ref transform: %v", err)
			}
			if at := core.DiffUnitStreams(spanStream, unitStream); at >= 0 {
				t.Fatalf("streams diverge at unit op %d of %d/%d", at, len(spanStream), len(unitStream))
			}
			span, err := core.ReplayText(l)
			if err != nil {
				t.Fatal(err)
			}
			unit, err := core.ReplayTextUnitRef(l)
			if err != nil {
				t.Fatal(err)
			}
			if span != unit {
				t.Fatalf("documents diverge: span len %d, unit len %d", len(span), len(unit))
			}
			noopt, err := core.ReplayRopeNoOpt(l)
			if err != nil {
				t.Fatal(err)
			}
			if noopt.String() != span {
				t.Fatalf("no-opt document diverges: len %d vs %d", noopt.Len(), len(span))
			}
		})
	}
}

// eventsFromLog exports a generated trace's history in wire form (the
// walk Doc.Events performs; traces live at the oplog level).
func eventsFromLog(l *oplog.Log) []egwalker.Event {
	g := l.Graph
	out := make([]egwalker.Event, 0, l.Len())
	l.EachOp(causal.Span{Start: 0, End: causal.LV(l.Len())},
		func(lv causal.LV, op oplog.Op) bool {
			id := g.IDOf(lv)
			ev := egwalker.Event{
				ID:     egwalker.EventID{Agent: id.Agent, Seq: id.Seq},
				Insert: op.Kind == oplog.Insert,
				Pos:    op.Pos,
			}
			if ev.Insert {
				ev.Content = op.Content
			}
			for _, p := range g.ParentsOf(lv) {
				pid := g.IDOf(p)
				ev.Parents = append(ev.Parents, egwalker.EventID{Agent: pid.Agent, Seq: pid.Seq})
			}
			out = append(out, ev)
			return true
		})
	return out
}

// TestDifferentialCodecTraces pins the compact columnar batch codec to
// the legacy per-event codec across every trace spec: both encodings
// must decode to the identical event list, columnar must round-trip
// the original events exactly, and a document loaded from a compact
// Save must match one loaded from a legacy Save.
func TestDifferentialCodecTraces(t *testing.T) {
	scale := diffScale()
	for _, spec := range trace.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			l, err := trace.Generate(spec.Scale(scale))
			if err != nil {
				t.Fatal(err)
			}
			events := eventsFromLog(l)
			legacy, err := egwalker.MarshalEvents(events)
			if err != nil {
				t.Fatal(err)
			}
			compact, err := egwalker.MarshalEventsCompact(events)
			if err != nil {
				t.Fatal(err)
			}
			if len(compact)*2 > len(legacy) {
				t.Errorf("columnar encoding is %d bytes, legacy %d — expected <= half", len(compact), len(legacy))
			}
			fromLegacy, err := egwalker.UnmarshalEventsAuto(legacy)
			if err != nil {
				t.Fatal(err)
			}
			fromCompact, err := egwalker.UnmarshalEventsAuto(compact)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromLegacy, fromCompact) {
				t.Fatal("legacy and columnar decodes diverge")
			}
			if !reflect.DeepEqual(fromCompact, events) {
				t.Fatal("columnar round-trip changed the events")
			}

			// Whole-document files: full and pruned Saves of the same
			// history must load to identical documents.
			doc := egwalker.NewDoc("differential")
			if _, err := doc.Apply(events); err != nil {
				t.Fatal(err)
			}
			var compactFile, prunedFile bytes.Buffer
			if err := doc.Save(&compactFile, egwalker.SaveOptions{CacheFinalDoc: true}); err != nil {
				t.Fatal(err)
			}
			if err := doc.Save(&prunedFile, egwalker.SaveOptions{CacheFinalDoc: true, OmitDeletedContent: true}); err != nil {
				t.Fatal(err)
			}
			fromCompactFile, err := egwalker.Load(&compactFile, "loader")
			if err != nil {
				t.Fatal(err)
			}
			fromPrunedFile, err := egwalker.Load(&prunedFile, "loader")
			if err != nil {
				t.Fatal(err)
			}
			if fromCompactFile.Text() != fromPrunedFile.Text() ||
				fromCompactFile.Fingerprint() != fromPrunedFile.Fingerprint() {
				t.Fatal("full and pruned files load to different documents")
			}
			if fromCompactFile.Text() != doc.Text() {
				t.Fatal("compact file load changed the text")
			}
		})
	}
}
