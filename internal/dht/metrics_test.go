package dht

// Exposition rows for the DHT instruments — pins the series names and
// label sets dashboards scrape (DESIGN.md §7).

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"asymshare/internal/metrics"
)

func TestPrometheusExpositionRows(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reg := metrics.NewRegistry()
	a := listenNode(t, Config{Metrics: reg})
	b := startNode(t)
	if err := a.Join(ctx, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Ping(ctx, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Announce(ctx, KeyFromFileID(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Lookup(ctx, KeyFromFileID(1)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, row := range []string{
		"# TYPE dht_rpcs_total counter",
		`dht_rpcs_total{type="ping"}`,
		`dht_rpcs_total{type="find_node"}`,
		`dht_rpcs_total{type="store"} 1`,
		"# TYPE dht_lookup_hops histogram",
		"dht_lookup_hops_count 1",
	} {
		if !strings.Contains(got, row) {
			t.Errorf("exposition missing row %q\n--- got ---\n%s", row, got)
		}
	}
}
