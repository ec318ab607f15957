// Malicious: adversarial behaviour, in both the allocation layer and
// the data layer.
//
// Part 1 simulates Sec. IV-C's resilience claims: a freeloader, and a
// two-peer coalition that serves only itself, against honest
// pairwise-proportional peers. The honest users keep (at least) their
// isolated bandwidth; the freeloader starves.
//
// Part 2 runs a real fetch where one storage peer serves forged
// payloads: the per-message MD5 digests (Sec. III-C) reject every
// forgery and the download completes from the honest peer.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/client"
	"asymshare/internal/fairshare"
	"asymshare/internal/gf"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/sim"
	"asymshare/internal/store"
	"asymshare/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	if err := allocationAttacks(); err != nil {
		return err
	}
	return forgedMessageAttack()
}

func allocationAttacks() error {
	fmt.Println("=== Part 1: allocation-layer attacks (simulated, 4000 s) ===")
	coalition := map[fairshare.ID]bool{"colluder0": true, "colluder1": true}
	cfg := sim.Config{
		Slots: 4000,
		Peers: []sim.PeerConfig{
			{Name: "honest0", Upload: trace.Const(512), Demand: trace.NewBernoulli(0.5, 1)},
			{Name: "honest1", Upload: trace.Const(512), Demand: trace.NewBernoulli(0.5, 2)},
			{Name: "freeloader", Upload: trace.Const(0), Demand: trace.Always{}},
			{Name: "colluder0", Upload: trace.Const(512), Demand: trace.NewBernoulli(0.5, 3),
				Policy: fairshare.Favor{Members: coalition}},
			{Name: "colluder1", Upload: trace.Const(512), Demand: trace.NewBernoulli(0.5, 4),
				Policy: fairshare.Favor{Members: coalition}},
		},
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-10s %-22s %s\n", "peer", "strategy", "mean download (kbps)", "isolated baseline")
	strategies := []string{"honest", "honest", "freeload", "collude", "collude"}
	baselines := []float64{0.5 * 512, 0.5 * 512, 0, 0.5 * 512, 0.5 * 512}
	for i, name := range res.Names {
		got := res.MeanDownload(i, 500, cfg.Slots)
		fmt.Printf("%-12s %-10s %-22.1f %.1f\n", name, strategies[i], got, baselines[i])
	}
	fmt.Println("honest peers clear their isolation bound (Theorem 1); the freeloader starves;")
	fmt.Println("collusion cannot take bandwidth that honest contributions did not earn")
	fmt.Println()
	return nil
}

func forgedMessageAttack() error {
	fmt.Println("=== Part 2: forged messages over real TCP ===")
	secret := make([]byte, rlnc.SecretLen)
	rand.New(rand.NewSource(5)).Read(secret)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(6)).Read(data)

	params, err := rlnc.ParamsForSize(gf.MustNew(gf.Bits16), len(data), 2048)
	if err != nil {
		return err
	}
	enc, err := rlnc.NewEncoder(params, 99, secret, data)
	if err != nil {
		return err
	}

	honestBatch, err := enc.BatchForPeer(0, params.K)
	if err != nil {
		return err
	}
	forgedBatch, err := enc.BatchForPeer(1, params.K)
	if err != nil {
		return err
	}
	digests := make(map[uint64]rlnc.Digest)
	for _, m := range honestBatch {
		digests[m.MessageID] = m.Digest()
	}
	for _, m := range forgedBatch {
		digests[m.MessageID] = m.Digest()
		m.Payload[0] ^= 0xAA // the adversary corrupts after digesting
	}

	userID, err := auth.NewIdentity()
	if err != nil {
		return err
	}
	c, err := client.New(userID, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var addrs []string
	for i, batch := range [][]*rlnc.Message{forgedBatch, honestBatch} {
		id, err := auth.NewIdentity()
		if err != nil {
			return err
		}
		node, err := peer.New(peer.Config{Identity: id, Store: store.NewMemory()})
		if err != nil {
			return err
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			return err
		}
		defer node.Close()
		if err := c.Disseminate(ctx, node.Addr().String(), batch); err != nil {
			return err
		}
		addrs = append(addrs, node.Addr().String())
		kind := "FORGING"
		if i == 1 {
			kind = "honest"
		}
		fmt.Printf("peer %s (%s) holds %d messages\n", node.Addr(), kind, len(batch))
	}

	got, stats, err := c.Fetch(ctx, client.FetchRequest{
		Peers:   addrs,
		Params:  params,
		FileID:  99,
		Secret:  secret,
		Digests: digests,
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(got, data) {
		return fmt.Errorf("decoded data mismatch")
	}
	fmt.Printf("fetch completed: %d messages seen, %d forgeries rejected by MD5, %d innovative used\n",
		stats.Messages, stats.Rejected, stats.Innovative)
	fmt.Println("the forging peer wasted its bandwidth; the download was unharmed")
	return nil
}
