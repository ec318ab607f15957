package main

import (
	"strings"
	"testing"

	"asymshare/internal/client"
	"asymshare/internal/dht"
	"asymshare/internal/estimate"
	"asymshare/internal/fairshare"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

func TestStatsScrapeAndRender(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("peer_served_bytes_total", "Message bytes served to downloaders.").Add(4096)
	reg.Gauge("peer_granted_rate_bytes_per_second", "Granted rate.",
		metrics.L("requester", "ab\"cd")).Set(1234.5)
	h := reg.Histogram("store_op_duration_seconds", "Store operation latency.", metrics.UnitSeconds,
		metrics.L("backend", "memory"), metrics.L("op", "put"))
	h.Observe(1500) // 1.5 us
	h.Observe(3000)

	srv, err := metrics.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out strings.Builder
	if err := run([]string{"stats", "-addr", srv.Addr().String()}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"peer_served_bytes_total (counter)",
		"Message bytes served to downloaders.",
		"4096",
		"peer_granted_rate_bytes_per_second (gauge)",
		`requester="ab\"cd"`, // escaped label survives the round trip
		"1234.5",
		"store_op_duration_seconds (histogram)",
		"count=2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("stats output missing %q\n---\n%s", want, text)
		}
	}

	// Filtering hides non-matching families.
	out.Reset()
	if err := run([]string{"stats", "-addr", srv.Addr().String(), "-filter", "store_"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "peer_served_bytes_total") {
		t.Error("filter did not exclude peer families")
	}
	if !strings.Contains(out.String(), "store_op_duration_seconds") {
		t.Error("filter excluded the store family")
	}

	// Raw mode passes the exposition through untouched.
	out.Reset()
	if err := run([]string{"stats", "-addr", srv.Addr().String(), "-raw"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# TYPE peer_served_bytes_total counter") {
		t.Errorf("raw output missing TYPE line:\n%s", out.String())
	}
}

func TestParseSampleLine(t *testing.T) {
	cases := []struct {
		line       string
		name       string
		labels     string
		value      float64
		shouldFail bool
	}{
		{line: "foo_total 42", name: "foo_total", value: 42},
		{line: `foo_total{a="b"} 1.5`, name: "foo_total", labels: `a="b"`, value: 1.5},
		{line: `foo{a="x y",b="q\"}"} 2`, name: "foo", labels: `a="x y",b="q\"}"`, value: 2},
		{line: "garbage", shouldFail: true},
		{line: `foo{a="b" 3`, shouldFail: true},
	}
	for _, c := range cases {
		s, err := parseSampleLine(c.line)
		if c.shouldFail {
			if err == nil {
				t.Errorf("parseSampleLine(%q) succeeded, want error", c.line)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSampleLine(%q): %v", c.line, err)
			continue
		}
		if s.name != c.name || s.labels != c.labels || s.value != c.value {
			t.Errorf("parseSampleLine(%q) = %+v, want name=%q labels=%q value=%g",
				c.line, s, c.name, c.labels, c.value)
		}
	}
}

func TestStatsSection(t *testing.T) {
	cases := []struct{ name, want string }{
		{"peer_served_bytes_total", "peer node"},
		{"fairshare_credit_events_total", "fairness ledger & allocator"},
		{"fairshare_estimate_bytes_per_second", "capacity estimation"},
		{"fairshare_policy_eq2_allocs_total", "allocation policy"},
		{"fairshare_ledger_entries", "bounded ledger"},
		{"mystery_thing_total", "mystery"},
		{"bare", "bare"},
	}
	for _, c := range cases {
		if got := statsSection(c.name); got != c.want {
			t.Errorf("statsSection(%q) = %q, want %q", c.name, got, c.want)
		}
	}

	// Every heading names families that exist: each key is the prefix
	// of at least one exported metric name.
	exported := []string{
		peer.MetricConnections, peer.MetricConnsActive, peer.MetricConnsShed, peer.MetricAcceptErrors,
		peer.MetricStreamsActive, peer.MetricCapacity, peer.MetricGrantedRate, peer.MetricReallocDur,
		peer.MetricServedBytes, peer.MetricServedRate, peer.MetricStoredBytes, peer.MetricFeedback,
		peer.MetricAuditsAnswered, peer.MetricAuditSampled, peer.MetricAuditHeld,
		peer.MetricOverloadSheds, peer.MetricOverloadPreempts, peer.MetricOverloadExpired,
		peer.MetricOverloadBrownout, peer.MetricOverloadAdmitted, peer.MetricWaitSeconds,
		peer.MetricThrottled, client.MetricFetchDuration, client.MetricFetches, client.MetricMessages,
		client.MetricInnovativeMessages, client.MetricRedundantMessages, client.MetricRejectedMessages,
		client.MetricDecodedBytes, client.MetricReceivedBytes, client.MetricReceivedBytesRate,
		client.MetricDecodeElimBytes, client.MetricVerifyGroups, client.MetricVerifyMessages,
		client.MetricVerifySkipped, client.MetricDecodeFixupBlocks, client.MetricHedgeLaunched,
		client.MetricBreakerOpens, client.MetricBreakerProbes, client.MetricBreakerRecoveries,
		client.MetricBreakerOpenCurrent, client.MetricShedsObserved, client.MetricSurplusFrames,
		client.MetricSurplusBytes, client.MetricShares, client.MetricPipelinesBuilt,
		wire.MetricFramesSent, wire.MetricFramesRecv, wire.MetricBytesSent, wire.MetricBytesReceived,
		fairshare.MetricCreditEvents, fairshare.MetricDebitEvents, fairshare.MetricCreditedUnits,
		fairshare.MetricDebitedUnits, fairshare.MetricLedgerEvictions, fairshare.MetricLedgerEntries,
		fairshare.MetricLedgerTailSum, fairshare.MetricCheckpoints, fairshare.MetricCheckpointErrors,
		fairshare.MetricCheckpointDuration, fairshare.MetricCheckpointGeneration,
		fairshare.MetricPolicyPrefix, estimate.MetricEstimateRate, estimate.MetricEstimateSamples,
		estimate.MetricEstimateSampleRate, store.MetricOpDuration, store.MetricOpErrors,
		store.MetricQuarantined, store.MetricTruncated, store.MetricCompactions,
		dht.MetricRPCs, dht.MetricLookupHops,
	}
	for _, table := range []map[string]string{statsSections, statsSubSections} {
		for key := range table {
			found := false
			for _, name := range exported {
				found = found || strings.HasPrefix(name, key+"_")
			}
			if !found {
				t.Errorf("section %q prefixes no exported metric name", key)
			}
		}
	}
}
