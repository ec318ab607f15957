package harness

// Churn scenario (make churn-smoke): 3 of the 5 storage peers holding
// a file vanish permanently — killed and blackholed, the netsim
// analogue of a machine leaving the swarm for good. Every holder keeps
// a full-rank batch of every chunk, so the file stays fetchable
// byte-identical from a cold client, and the owner's repair, which can
// only re-send to a holder that answers, re-sends nothing and names
// exactly the dead holders.

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/gf"
)

func TestChurnKeepsFileFetchable(t *testing.T) {
	seed := Seed(t, 29)
	ctx := testCtx(t)

	const holders = 5
	c := Start(t, seed, holders)
	plan := chunk.Plan{FieldBits: gf.Bits8, M: 128, ChunkSize: 1024}
	data := bytes.Repeat([]byte("churned swarm "), 3000/14+1)[:3000]
	// Repair's spot-check probes the holders one after another, and a
	// blackholed one costs a retry ladder of three dials plus 1.5 s of
	// backoff: a 500 ms dial bound keeps that near 3 s a holder, where
	// three attempts of audit.DefaultTimeout would take 16.5 s.
	sys, err := core.NewSystem(c.Owner, nil, core.WithPlan(plan),
		core.WithClientOptions(client.Options{Transport: c.Fabric.Host(HostUser), DialTimeout: 500 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, holders)
	for i := range addrs {
		addrs[i] = c.Peers[i].Addr
	}
	res, err := sys.ShareFile(ctx, "churn.bin", data, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Handle.Manifest.Chunks); n < 2 {
		t.Fatalf("want a multi-chunk share, got %d chunks", n)
	}

	// Permanent churn: 3 of the 5 holders (60%) are killed and
	// blackholed, so dials and probes time out instead of failing fast.
	var dead []string
	for _, i := range []int{1, 2, 3} {
		c.Peers[i].Node.Close()
		c.Fabric.Blackhole(c.Peers[i].Host)
		dead = append(dead, c.Peers[i].Addr)
	}

	cold, err := core.NewSystem(c.Owner, nil, core.WithPlan(plan),
		core.WithClientOptions(client.Options{Transport: c.Fabric.Host("cold")}))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := cold.FetchFile(ctx, &res.Handle, res.Secret)
	if err != nil {
		t.Fatalf("cold fetch after churn: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cold fetch differs from original after churn")
	}

	// The live holders pass their spot-checks, so repair re-sends
	// nothing, and it cannot re-send to a holder that is gone.
	n, err := sys.Repair(ctx, &res.Handle, res.Secret, data)
	if n != 0 {
		t.Errorf("repair re-sent %d messages, want 0", n)
	}
	const prefix = "core: repair: unreachable holders not repaired: "
	if err == nil || !strings.HasPrefix(err.Error(), prefix) {
		t.Fatalf("repair error = %v, want one naming the dead holders", err)
	}
	named := strings.Split(strings.TrimPrefix(err.Error(), prefix), ", ")
	slices.Sort(named)
	slices.Sort(dead)
	if !slices.Equal(named, dead) {
		t.Fatalf("repair named %v, want exactly the dead holders %v", named, dead)
	}
}
