package egwalker_test

// End-to-end integration: synthetic benchmark traces flow through the
// public API (event exchange), persistence (all save modes), and the
// network layer, and every path agrees with the core replay.

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"egwalker"
	"egwalker/internal/causal"
	"egwalker/internal/core"
	"egwalker/internal/oplog"
	"egwalker/internal/trace"
	"egwalker/netsync"
)

// docFromLog feeds a generated trace into a Doc through the public
// Apply path.
func docFromLog(t *testing.T, l *oplog.Log, agent string) *egwalker.Doc {
	t.Helper()
	d := egwalker.NewDoc(agent)
	batch := make([]egwalker.Event, 0, l.Len())
	l.EachOp(causal.Span{Start: 0, End: causal.LV(l.Len())}, func(lv causal.LV, op oplog.Op) bool {
		id := l.Graph.IDOf(lv)
		ev := egwalker.Event{
			ID:     egwalker.EventID{Agent: id.Agent, Seq: id.Seq},
			Insert: op.Kind == oplog.Insert,
			Pos:    op.Pos,
		}
		if ev.Insert {
			ev.Content = op.Content
		}
		for _, p := range l.Graph.ParentsOf(lv) {
			pid := l.Graph.IDOf(p)
			ev.Parents = append(ev.Parents, egwalker.EventID{Agent: pid.Agent, Seq: pid.Seq})
		}
		batch = append(batch, ev)
		return true
	})
	if _, err := d.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if d.PendingEvents() != 0 {
		t.Fatalf("trace left %d pending events", d.PendingEvents())
	}
	return d
}

func TestEndToEndTraces(t *testing.T) {
	for _, spec := range []trace.Spec{
		trace.S1.Scale(0.002),
		trace.C1.Scale(0.002),
		trace.A2.Scale(0.002),
	} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			l, err := trace.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.ReplayText(l)
			if err != nil {
				t.Fatal(err)
			}

			// Public API replay.
			d := docFromLog(t, l, "it")
			if d.Text() != want {
				t.Fatalf("Doc text differs from core replay (%d vs %d bytes)", len(d.Text()), len(want))
			}

			// Persistence in every mode.
			for _, opts := range []egwalker.SaveOptions{
				{},
				{CacheFinalDoc: true},
				{CacheFinalDoc: true, Compress: true},
				{OmitDeletedContent: true},
				{OmitDeletedContent: true, Compress: true},
				{OmitDeletedContent: true, CacheFinalDoc: true},
			} {
				var buf bytes.Buffer
				if err := d.Save(&buf, opts); err != nil {
					t.Fatalf("save %+v: %v", opts, err)
				}
				loaded, err := egwalker.Load(&buf, "loader")
				if err != nil {
					t.Fatalf("load %+v: %v", opts, err)
				}
				if loaded.Text() != want {
					t.Fatalf("load %+v: text differs", opts)
				}
			}

			// Network sync: a fresh replica converges in one round.
			fresh := egwalker.NewDoc("fresh")
			ca, cb := net.Pipe()
			var wg sync.WaitGroup
			var e1, e2 error
			wg.Add(2)
			go func() { defer wg.Done(); e1 = netsync.Sync(d, ca) }()
			go func() { defer wg.Done(); e2 = netsync.Sync(fresh, cb) }()
			wg.Wait()
			if e1 != nil || e2 != nil {
				t.Fatalf("sync: %v / %v", e1, e2)
			}
			if fresh.Text() != want {
				t.Fatal("network sync diverged from replay")
			}

			// History: the trace's own final version reconstructs.
			got, err := d.TextAt(d.Version())
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatal("TextAt(current version) differs")
			}
		})
	}
}
