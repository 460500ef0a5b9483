package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"egwalker/store"
)

// TestMetricsMux: the -metrics-addr endpoints answer on a running server:
// the metrics snapshot, the readiness probe, the profile index and one
// profile.
func TestMetricsMux(t *testing.T) {
	srv, err := store.NewServer(t.TempDir(), store.ServerOptions{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(metricsMux(srv))
	defer ts.Close()
	for path, want := range map[string]string{
		"/metrics":            "{",
		"/healthz":            "ok",
		"/debug/pprof/":       "heap",
		"/debug/pprof/heap":   "",
		"/debug/pprof/allocs": "",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s: %s, %d bytes; want 200 and %q in the body", path, resp.Status, len(body), want)
		}
	}
}
