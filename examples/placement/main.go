// Placement: the "geographic data robustness" story. A file is placed
// on a consistent-hashing ring (PAST-style) with 2 replicas per
// generation across 5 peers, so each peer stores only ~40% of the
// data. One peer then suffers a disk failure; the keyed spot-check
// spots the damage and repair regenerates exactly the lost batches from
// the original data — deterministically, because every message is a pure
// function of (file-id, message-id, secret).
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/core"
	"asymshare/internal/gf"
	"asymshare/internal/peer"
	"asymshare/internal/ring"
	"asymshare/internal/store"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	user, err := auth.NewIdentity()
	if err != nil {
		return err
	}
	plan := chunk.Plan{FieldBits: gf.Bits16, M: 1024, ChunkSize: 32 << 10}
	sys, err := core.NewSystem(user, nil, core.WithPlan(plan))
	if err != nil {
		return err
	}

	stores := make(map[string]*store.Memory)
	var addrs []string
	for i := 0; i < 5; i++ {
		id, err := auth.NewIdentity()
		if err != nil {
			return err
		}
		st := store.NewMemory()
		node, err := peer.New(peer.Config{Identity: id, Store: st})
		if err != nil {
			return err
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			return err
		}
		defer node.Close()
		addrs = append(addrs, node.Addr().String())
		stores[node.Addr().String()] = st
	}
	r, err := ring.New(addrs, 0)
	if err != nil {
		return err
	}

	data := make([]byte, 256<<10) // 8 generations of 32 KiB
	rand.New(rand.NewSource(3)).Read(data)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	res, err := sys.ShareFilePlaced(ctx, "archive.tar", data, r, 2)
	if err != nil {
		return err
	}
	fmt.Printf("placed %d generations x2 replicas on %d peers\n",
		len(res.Handle.Manifest.Chunks), len(addrs))
	for addr, st := range stores {
		fmt.Printf("  %s stores %d messages\n", addr, st.TotalMessages())
	}

	report, err := sys.SpotCheck(ctx, &res.Handle, res.Secret, core.SpotCheckOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("spot-check: all passed=%v (%d batches checked)\n\n", report.AllPassed(), len(report.Verdicts))

	// Disaster: one peer loses its whole store.
	victim := res.Handle.ChunkPeers[0][0]
	for _, fid := range stores[victim].Files() {
		if err := stores[victim].Drop(fid); err != nil {
			return err
		}
	}
	fmt.Printf("disk failure at %s: store wiped\n", victim)

	report, err = sys.SpotCheck(ctx, &res.Handle, res.Secret, core.SpotCheckOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("spot-check: all passed=%v, failed chunks at %s: %v\n",
		report.AllPassed(), victim, report.FailedChunks[victim])

	// Even degraded, the file still fetches (the other replica serves).
	got, _, err := sys.FetchFile(ctx, &res.Handle, res.Secret)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, data) {
		return fmt.Errorf("degraded fetch mismatch")
	}
	fmt.Println("degraded fetch still succeeds via surviving replicas")

	n, err := sys.Repair(ctx, &res.Handle, res.Secret, data)
	if err != nil {
		return err
	}
	report, err = sys.SpotCheck(ctx, &res.Handle, res.Secret, core.SpotCheckOptions{})
	if err != nil {
		return err
	}
	if !report.AllPassed() {
		return fmt.Errorf("spot-check after repair failed: %v", report.FailedChunks)
	}
	fmt.Printf("repair re-uploaded %d messages; spot-check all passed=%v\n", n, report.AllPassed())
	return nil
}
