package metrics

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with every instrument kind and the
// label-escaping edge cases, deterministic enough to golden-test.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("wire_frames_sent_total", "Frames written, by frame type.", L("type", "DATA")).Add(42)
	r.Counter("wire_frames_sent_total", "Frames written, by frame type.", L("type", "PUT")).Add(7)
	r.Counter("escape_total", "Help with a backslash \\ and\nnewline.",
		L("path", `C:\tmp`), L("quote", `say "hi"`), L("nl", "a\nb")).Inc()
	r.Gauge("peer_connections_active", "Open authenticated connections.").Set(3)
	r.Rate("peer_served_bytes_rate", "EWMA of served bytes per second.", time.Second)
	h := r.Histogram("store_op_duration_seconds", "Store operation latency.", UnitSeconds, L("backend", "memory"), L("op", "get"))
	h.Observe(100)       // 100 ns → bucket 7 (le 127 ns)
	h.Observe(1000)      // 1 µs → bucket 10
	h.Observe(1000)      // again
	h.Observe(2_000_000) // 2 ms → bucket 21
	h.Observe(0)         // zero → bucket 0
	hb := r.Histogram("client_fetch_bytes", "Fetched generation sizes.", UnitBytes)
	hb.Observe(4096)
	// A labelled family with no series yet still exposes HELP/TYPE.
	r.Histogram("peer_realloc_duration_seconds", "Allocator recompute latency.", UnitSeconds, L("unused", "x"))
	return r
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`path="C:\\tmp"`,
		`quote="say \"hi\""`,
		`nl="a\nb"`,
		`# HELP escape_total Help with a backslash \\ and\nnewline.`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "", UnitSeconds)
	h.Observe(1) // bucket 1
	h.Observe(3) // bucket 2
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`x_seconds_bucket{le="+Inf"} 2`,
		"x_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative counts must be non-decreasing.
	var prev uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "x_seconds_bucket") || strings.Contains(line, "+Inf") {
			continue
		}
		var cum uint64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &cum); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if cum < prev {
			t.Fatalf("cumulative bucket decreased: %q", line)
		}
		prev = cum
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_test_total", "").Add(9)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "http_test_total 9") {
		t.Errorf("body missing counter:\n%s", body)
	}

	vars, err := http.Get("http://" + srv.Addr().String() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars.Body.Close()
	if vars.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars status = %d", vars.StatusCode)
	}
}

// TestServePprof: the listener that serves /metrics serves the runtime
// profiles too — the index and a named profile in text form.
func TestServePprof(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, want := range map[string]string{
		"/debug/pprof/":                  "goroutine",
		"/debug/pprof/goroutine?debug=1": "goroutine profile: total",
	} {
		resp, err := http.Get("http://" + srv.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s: status %d, body lacks %q:\n%.300s", path, resp.StatusCode, want, body)
		}
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("ev_total", "").Inc()
	r.PublishExpvar("metrics_test_registry")
	// A second publish under the same name must not panic.
	r.PublishExpvar("metrics_test_registry")
}
