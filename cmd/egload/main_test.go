package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"egwalker/internal/loadgen"
	"egwalker/store"
)

// TestRunMixes runs four mixes — sequential typing, concurrent bursts,
// reconnect churn and cold block-serve joins — for about a second each
// against a store.Server on loopback TCP, and reads the report egload
// writes: every mix delivered events without errors, and the churners
// resumed with their version summaries without falling back to a full
// catch-up.
func TestRunMixes(t *testing.T) {
	srv, err := store.NewServer(t.TempDir(), store.ServerOptions{FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				srv.ServeConn(c)
			}()
		}
	}()
	metrics := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(srv.MetricsSnapshot())
	}))
	defer metrics.Close()

	out := filepath.Join(t.TempDir(), "BENCH_server.json")
	err = run([]string{
		"-addr", ln.Addr().String(),
		"-metrics-url", metrics.URL,
		"-mix", "seq,burst,resume,colddocs",
		"-docs", "2", "-writers", "2", "-rate", "50", "-duration", "400ms",
		"-cold-docs", "20", "-cold-joins", "10",
		"-doc-prefix", "egload-test",
		"-out", out,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Mixes         []loadgen.Result      `json:"mixes"`
		ServerMetrics store.MetricsSnapshot `json:"server_metrics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Mixes) != 4 {
		t.Fatalf("report has %d mixes, want 4", len(rep.Mixes))
	}
	for _, m := range rep.Mixes {
		if m.Name == "colddocs" {
			if c := m.Cold; c == nil || c.Joins != 10 || c.JoinErrors != 0 {
				t.Fatalf("colddocs: %+v", c)
			}
			continue
		}
		if m.EventsDelivered == 0 || m.WriterErrors != 0 {
			t.Fatalf("mix %q: delivered %d events, %d writer errors", m.Name, m.EventsDelivered, m.WriterErrors)
		}
		if m.Name == "resume" && (m.Resume == nil || m.Resume.Reconnects == 0) {
			t.Fatalf("resume mix reconnected no churner: %+v", m.Resume)
		}
	}
	sm := rep.ServerMetrics
	if sm.SummaryResumes == 0 || sm.ResumeFallbacks != 0 {
		t.Fatalf("server metrics: summary_resumes=%d resume_fallbacks=%d, want > 0 and 0", sm.SummaryResumes, sm.ResumeFallbacks)
	}
	if sm.BlockServes < 10 {
		t.Fatalf("block_serves=%d, want the 10 cold joins served off disk", sm.BlockServes)
	}
}
