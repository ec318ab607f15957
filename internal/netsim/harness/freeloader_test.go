package harness

// The paper's incentive loop on the live stack — the "dynamic real-time
// environment" it lists as future work (Sec. VI-A). Each participant is
// one user/peer pair under a single identity ("each user corresponds to
// one peer on the network"): its peer stores everyone's generation and
// serves it at a shaped rate split by Eq. (2); its user fetches its own
// generation from every peer at once and reports per-peer receipts to
// its own peer, which credits the ledger the next split reads.

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/fairshare"
	"asymshare/internal/gf"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
)

// TestFreeloaderPenalizedOverRealTCP: three honest pairs and one whose
// peer withholds, every uplink 256 KiB/s. After the first round the
// honest users' feedback has credited each other; the withholding
// peer's standing stays at the initial credit, so while fetches compete
// its user is starved and its goodput lags.
func TestFreeloaderPenalizedOverRealTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second shaped network experiment")
	}
	seed := Seed(t, 3)
	ctx := testCtx(t)
	const (
		pairs     = 4 // the last one withholds
		rounds    = 3
		dataBytes = 256 << 10
	)
	params, err := rlnc.ParamsForSize(gf.MustNew(gf.Bits8), dataBytes, 2048)
	if err != nil {
		t.Fatal(err)
	}
	c := Start(t, seed, 0)
	users := make([]*client.Client, pairs)
	addrs := make([]string, pairs)
	for i := range users {
		key := byte(170 + i)
		id := testIdentity(t, key)
		var alloc fairshare.Allocator
		if i == pairs-1 {
			alloc = fairshare.Withhold{}
		}
		p := c.startPeer("pair"+strconv.Itoa(i), key, peer.Config{
			Owner:             id.Public(),
			UploadBytesPerSec: 256 << 10,
			StreamBurst:       16 << 10,
			ReallocInterval:   100 * time.Millisecond,
			Allocator:         alloc,
		})
		users[i], addrs[i] = c.Client(p.Host, id, client.Options{}), p.Addr
	}

	// Every user disseminates its own generation to every peer, its own
	// included.
	rng := rand.New(rand.NewSource(seed))
	for i, u := range users {
		data := make([]byte, dataBytes)
		rng.Read(data)
		enc, err := rlnc.NewEncoder(params, uint64(1000+i), Secret(), data)
		if err != nil {
			t.Fatal(err)
		}
		for j, addr := range addrs {
			batch, err := enc.BatchForPeer(j, params.K)
			if err != nil {
				t.Fatal(err)
			}
			if err := u.Disseminate(ctx, addr, batch); err != nil {
				t.Fatalf("disseminate %d->%d: %v", i, j, err)
			}
		}
	}

	// rates[i][r] is user i's goodput in round r, B/s.
	rates := make([][rounds]float64, pairs)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make([]error, pairs)
		for i, u := range users {
			wg.Add(1)
			go func(i int, u *client.Client) {
				defer wg.Done()
				data, stats, err := u.Fetch(ctx, client.FetchRequest{
					Peers:  addrs,
					Params: params,
					FileID: uint64(1000 + i),
					Secret: Secret(),
				})
				if err == nil {
					rates[i][r] = stats.EffectiveRate(len(data))
					err = u.SendFeedback(ctx, addrs[i], stats.BytesFrom)
				}
				errs[i] = err
			}(i, u)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d user %d: %v", r, i, err)
			}
		}
		t.Logf("round %d goodput (KiB/s): honest %.0f %.0f %.0f, leech %.0f",
			r, rates[0][r]/1024, rates[1][r]/1024, rates[2][r]/1024, rates[3][r]/1024)
	}

	mean := func(i int) float64 { return (rates[i][1] + rates[i][2]) / 2 }
	honest := (mean(0) + mean(1) + mean(2)) / 3
	leech := mean(3)
	if leech <= 0 || honest <= 0 {
		t.Fatalf("rates: honest %v leech %v", honest, leech)
	}
	if honest < 1.15*leech {
		t.Errorf("honest mean %.0f B/s not clearly above leech %.0f B/s", honest, leech)
	}
}
