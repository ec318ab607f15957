package asymshare

// One benchmark per table and figure of the paper, plus ablations.
// Each benchmark regenerates the corresponding result at a reduced but
// shape-preserving scale and reports the headline quantity through
// b.ReportMetric, so `go test -bench=.` doubles as the reproduction
// harness. cmd/paperfig emits the full-scale series.

import (
	"fmt"
	"math/rand"
	"testing"

	"asymshare/internal/fairshare"
	"asymshare/internal/figures"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
	"asymshare/internal/sim"
	"asymshare/internal/trace"
)

// BenchmarkFig1 regenerates the transmission-time curves of Figure 1
// and reports the headline cable-modem upload/download gap in hours.
func BenchmarkFig1(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig1()
	}
	if len(fig.Series) != 4 {
		b.Fatal("wrong series count")
	}
	up, down := figures.Fig1Headline()
	b.ReportMetric(up, "upload_h")
	b.ReportMetric(down*60, "download_min")
}

// BenchmarkTable1 regenerates the k grid of Table I.
func BenchmarkTable1(b *testing.B) {
	var tbl *figures.Table
	for i := 0; i < b.N; i++ {
		tbl = figures.Table1()
	}
	// Paper check: GF(2^32) @ m=2^15 gives k=8.
	if tbl.Cells[3][2] != 8 {
		b.Fatalf("table1 corrupted: %v", tbl.Cells)
	}
}

// BenchmarkDecode1MB is Table II: decode (== encode) time for 1 MB of
// data across the (q, m) grid. The per-iteration work is one full
// decode of k fresh messages.
func BenchmarkDecode1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, figures.TableDataBytes)
	rng.Read(data)
	secret := make([]byte, rlnc.SecretLen)
	rng.Read(secret)

	for _, bits := range figures.TableFieldBits {
		field := gf.MustNew(bits)
		for _, m := range figures.TableMessageLens {
			name := fmt.Sprintf("GF2_%d/m=2^%d", bits, log2(m))
			b.Run(name, func(b *testing.B) {
				params, err := rlnc.ParamsForSize(field, len(data), m)
				if err != nil {
					b.Fatal(err)
				}
				enc, err := rlnc.NewEncoder(params, 1, secret, data)
				if err != nil {
					b.Fatal(err)
				}
				msgs := make([]*rlnc.Message, params.K)
				for i := range msgs {
					msgs[i] = enc.Message(uint64(i))
				}
				b.SetBytes(int64(len(data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dec, err := rlnc.NewDecoder(params, 1, secret, nil)
					if err != nil {
						b.Fatal(err)
					}
					for _, msg := range msgs {
						if dec.Done() {
							break
						}
						if _, err := dec.Add(msg); err != nil {
							b.Fatal(err)
						}
					}
					// Random GF(2^4) rows are occasionally dependent;
					// top up with extra messages.
					for id := uint64(params.K); !dec.Done(); id++ {
						if _, err := dec.Add(enc.Message(id)); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := dec.Decode(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEncode1MB measures the owner-side cost of minting one
// encoded message (the initialization phase is k such messages per
// peer).
func BenchmarkEncode1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, figures.TableDataBytes)
	rng.Read(data)
	secret := make([]byte, rlnc.SecretLen)
	rng.Read(secret)
	for _, bits := range figures.TableFieldBits {
		field := gf.MustNew(bits)
		const m = 1 << 15
		b.Run(fmt.Sprintf("GF2_%d/m=2^15", bits), func(b *testing.B) {
			params, err := rlnc.ParamsForSize(field, len(data), m)
			if err != nil {
				b.Fatal(err)
			}
			enc, err := rlnc.NewEncoder(params, 1, secret, data)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(params.ChunkBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.Message(uint64(i))
			}
		})
	}
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// BenchmarkFig5a: ten saturated users converge to their own upload
// rates; reports the worst relative deviation at steady state.
func BenchmarkFig5a(b *testing.B) {
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = figures.Fig5a(1800)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for i := 0; i < 10; i++ {
		want := float64(100 * (i + 1))
		got := res.MeanDownload(i, 1500, 1800)
		dev := abs(got-want) / want
		if dev > worst {
			worst = dev
		}
	}
	b.ReportMetric(worst*100, "worst_dev_%")
}

// BenchmarkFig5b: fairness with a dominating peer; reports the
// dominant peer's steady-state rate (paper: ~1024 kbps).
func BenchmarkFig5b(b *testing.B) {
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = figures.Fig5b(1800)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanDownload(2, 1500, 1800), "dominant_kbps")
}

// BenchmarkFig6: the 24-hour home-video day; reports the smallest
// per-user gain over isolation (paper: strictly positive for all).
func BenchmarkFig6(b *testing.B) {
	var gains []float64
	for i := 0; i < b.N; i++ {
		var err error
		_, _, gains, err = figures.HomeVideo(figures.HomeVideoOptions{SlotsPerHour: 300, Seed: 2006})
		if err != nil {
			b.Fatal(err)
		}
	}
	minGain := gains[0]
	for _, g := range gains[1:] {
		if g < minGain {
			minGain = g
		}
	}
	b.ReportMetric(minGain, "min_gain_kbps")
}

// BenchmarkFig7: same day with peer 1 contributing only after hour 3;
// reports how much gain peer 1 lost versus the Fig. 6 baseline.
func BenchmarkFig7(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		_, _, base, err := figures.HomeVideo(figures.HomeVideoOptions{SlotsPerHour: 300, Seed: 2006})
		if err != nil {
			b.Fatal(err)
		}
		_, _, late, err := figures.HomeVideo(figures.HomeVideoOptions{
			SlotsPerHour: 300, Seed: 2006, Peer1StartHour: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		penalty = base[1] - late[1]
	}
	b.ReportMetric(penalty, "peer1_penalty_kbps")
}

// BenchmarkFig8a: contribute-while-idle credit; reports the early
// contributor's advantage over the late joiner right after both join.
func BenchmarkFig8a(b *testing.B) {
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = figures.Fig8a(1600)
		if err != nil {
			b.Fatal(err)
		}
	}
	saver := res.MeanDownload(0, 1000, 1200)
	late := res.MeanDownload(1, 1000, 1200)
	b.ReportMetric(saver-late, "advantage_kbps")
}

// BenchmarkFig8b: the capacity drop/recovery; reports the depth of the
// dip relative to the pre-drop rate.
func BenchmarkFig8b(b *testing.B) {
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = figures.Fig8b(figures.Fig8bOptions{Slots: 4000})
		if err != nil {
			b.Fatal(err)
		}
	}
	before := res.MeanDownload(0, 800, 1000)
	during := res.MeanDownload(0, 2800, 3000)
	b.ReportMetric((before-during)/before*100, "dip_%")
}

// BenchmarkAblationLedgerDecay compares adaptation speed of the
// cumulative ledger against the decaying variant on the Fig. 8(b)
// drop; reports the rate advantage (lower is faster adaptation) of the
// decaying ledger shortly after the drop.
func BenchmarkAblationLedgerDecay(b *testing.B) {
	var cumulative, decayed *sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, cumulative, err = figures.Fig8b(figures.Fig8bOptions{Slots: 2000})
		if err != nil {
			b.Fatal(err)
		}
		_, decayed, err = figures.Fig8b(figures.Fig8bOptions{Slots: 2000, LedgerDecay: 0.995})
		if err != nil {
			b.Fatal(err)
		}
	}
	c := cumulative.MeanDownload(0, 1200, 1500)
	d := decayed.MeanDownload(0, 1200, 1500)
	b.ReportMetric(c-d, "faster_adapt_kbps")
}

// BenchmarkAblationAllocators pits Eq. (2) against the Eq. (3)
// baseline when one peer lies about its capacity: under global
// proportional fairness the liar captures bandwidth; under the
// pairwise rule it cannot. Reports the liar's take under each rule.
func BenchmarkAblationAllocators(b *testing.B) {
	liarTake := func(alloc func(declared map[fairshare.ID]float64) fairshare.Allocator) float64 {
		// Peer "liar" contributes 0 but declares 10000.
		declared := map[fairshare.ID]float64{"liar": 10000, "h0": 512, "h1": 512}
		cfg := sim.Config{
			Slots: 1500,
			Peers: []sim.PeerConfig{
				{Name: "liar", Upload: trace.Const(0), Demand: trace.Always{}, Policy: alloc(declared)},
				{Name: "h0", Upload: trace.Const(512), Demand: trace.Always{}, Policy: alloc(declared)},
				{Name: "h1", Upload: trace.Const(512), Demand: trace.Always{}, Policy: alloc(declared)},
			},
		}
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.MeanDownload(0, 1000, 1500)
	}
	var eq3, eq2 float64
	for i := 0; i < b.N; i++ {
		eq3 = liarTake(func(d map[fairshare.ID]float64) fairshare.Allocator {
			return fairshare.GlobalProportional{DeclaredUpload: d}
		})
		eq2 = liarTake(func(map[fairshare.ID]float64) fairshare.Allocator {
			return fairshare.PairwiseProportional{}
		})
	}
	b.ReportMetric(eq3, "liar_eq3_kbps")
	b.ReportMetric(eq2, "liar_eq2_kbps")
}

// BenchmarkAllocPolicyGrid runs one sim swarm under each allocation
// policy: 60 honest contributors at 1000 kbps, each requesting in a slot
// with probability γ = 0.6, and 12 free riders that declare the same
// capacity, request every slot and serve nothing. Eq. (2) and Eq. (3)
// run beside equal split and Awasthi & Singh's Biased Contribution
// Index. Every policy runs with each peer's ledger at
// DefaultLedgerBound, far above the 71 counterparts a peer meets, and
// at bound 64, below it, so ledgers evict throughout. Over the
// second half of the run it reports the Jain index of the honest users'
// download, the free riders' download relative to an honest user's
// (low: freeloading does not pay), and the slot at which honest user
// 0's cumulative-average download settles within 10 % of its steady
// state (-1: it never downloads).
func BenchmarkAllocPolicyGrid(b *testing.B) {
	const (
		honestPeers = 60
		freeRiders  = 12
		uploadKbps  = 1000
		gamma       = 0.6
		seed        = 7
		slots       = 600
	)
	declared := make(map[fairshare.ID]float64, honestPeers+freeRiders)
	for i := 0; i < honestPeers; i++ {
		declared[fmt.Sprintf("honest%02d", i)] = uploadKbps
	}
	for i := 0; i < freeRiders; i++ {
		declared[fmt.Sprintf("rider%02d", i)] = uploadKbps // eq3 believes them
	}
	policies := []struct {
		name   string
		policy fairshare.Allocator
	}{
		{"eq2", fairshare.PairwiseProportional{}},
		{"eq3", fairshare.GlobalProportional{DeclaredUpload: declared}},
		{"equal", fairshare.EqualSplit{}},
		{"bci", fairshare.BiasedContribution{}},
	}
	for _, pol := range policies {
		for _, bound := range []int{fairshare.DefaultLedgerBound, 64} {
			b.Run(fmt.Sprintf("%s/bound=%d", pol.name, bound), func(b *testing.B) {
				var res *sim.Result
				for i := 0; i < b.N; i++ {
					cfg := sim.Config{Slots: slots}
					for j := 0; j < honestPeers; j++ {
						cfg.Peers = append(cfg.Peers, sim.PeerConfig{
							Name:   fmt.Sprintf("honest%02d", j),
							Upload: trace.Const(uploadKbps),
							Demand: trace.NewBernoulli(gamma, seed+int64(j)),
							Policy: pol.policy,
							Ledger: fairshare.NewBoundedLedger(fairshare.DefaultInitialCredit, bound),
						})
					}
					for j := 0; j < freeRiders; j++ {
						cfg.Peers = append(cfg.Peers, sim.PeerConfig{
							Name:   fmt.Sprintf("rider%02d", j),
							Upload: trace.Const(uploadKbps),
							Demand: trace.Always{},
							Policy: fairshare.Withhold{},
							Ledger: fairshare.NewBoundedLedger(fairshare.DefaultInitialCredit, bound),
						})
					}
					var err error
					if res, err = sim.Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
				from, to := slots/2, slots
				honest := make([]float64, honestPeers)
				honestMean := 0.0
				for j := range honest {
					honest[j] = res.MeanDownloadWhileRequesting(j, from, to)
					honestMean += honest[j] / honestPeers
				}
				riders := 0.0
				for j := 0; j < freeRiders; j++ {
					riders += res.MeanDownloadWhileRequesting(honestPeers+j, from, to) / freeRiders
				}
				share, settle := 0.0, -1
				if honestMean > 0 {
					share = riders / honestMean
				}
				// The raw series is zero on slots the user does not
				// request, so only its cumulative average (window = the
				// whole series) settles inside a tight tolerance.
				if target := res.MeanDownload(0, from, to); target > 0 {
					settle = sim.ConvergenceSlot(res.Download[0], target, 0.1, len(res.Download[0]))
				}
				b.ReportMetric(sim.JainIndex(honest), "jain")
				b.ReportMetric(share, "freerider_share")
				b.ReportMetric(float64(settle), "convergence_slot")
			})
		}
	}
}

// BenchmarkInnovationOverhead measures the extra messages beyond k a
// decoder needs across field sizes — the cost of the w.h.p.
// independence argument, which shrinks as q grows.
func BenchmarkInnovationOverhead(b *testing.B) {
	for _, bits := range figures.TableFieldBits {
		field := gf.MustNew(bits)
		b.Run(fmt.Sprintf("GF2_%d", bits), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			secret := make([]byte, rlnc.SecretLen)
			rng.Read(secret)
			const k = 32
			params, err := rlnc.NewParams(field, k, 16, k*gf.VecBytes(field.Bits(), 16))
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, params.DataLen)
			rng.Read(data)
			enc, err := rlnc.NewEncoder(params, 1, secret, data)
			if err != nil {
				b.Fatal(err)
			}
			extra := 0
			total := 0
			for i := 0; i < b.N; i++ {
				dec, err := rlnc.NewDecoder(params, 1, secret, nil)
				if err != nil {
					b.Fatal(err)
				}
				sent := 0
				for id := uint64(i) << 16; !dec.Done(); id++ {
					if _, err := dec.Add(enc.Message(id)); err != nil {
						b.Fatal(err)
					}
					sent++
				}
				extra += sent - k
				total++
			}
			b.ReportMetric(float64(extra)/float64(total), "extra_msgs")
		})
	}
}

// BenchmarkAblationTitForTat compares Jain fairness under the paper's
// Eq. (2) and a BitTorrent-style top-2 tit-for-tat in a saturated
// heterogeneous network.
func BenchmarkAblationTitForTat(b *testing.B) {
	var res *figures.TitForTatAblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = figures.TitForTatAblation(3000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.JainEq2, "jain_eq2")
	b.ReportMetric(res.JainTFT, "jain_tft")
}

// BenchmarkRobustness measures the decode-success table of the
// partial-storage robustness experiment and reports the success rate
// at the critical a*k' == k boundary.
func BenchmarkRobustness(b *testing.B) {
	var tbl *figures.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = figures.Robustness(figures.RobustnessOptions{
			K: 16, KPrimes: []int{4}, MaxPeers: 4, Trials: 40, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tbl.Cells[0][3], "success_at_boundary")
}

// BenchmarkRecode measures relay recombination throughput — the
// operation the paper's verbatim-forwarding design avoids on peers.
func BenchmarkRecode(b *testing.B) {
	for _, bits := range []uint{gf.Bits8, gf.Bits32} {
		field := gf.MustNew(bits)
		b.Run(fmt.Sprintf("GF2_%d", bits), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			const k, m = 16, 4096
			params, err := rlnc.NewParams(field, k, m, k*gf.VecBytes(field.Bits(), m))
			if err != nil {
				b.Fatal(err)
			}
			secret := make([]byte, rlnc.SecretLen)
			rng.Read(secret)
			data := make([]byte, params.DataLen)
			rng.Read(data)
			enc, err := rlnc.NewEncoder(params, 1, secret, data)
			if err != nil {
				b.Fatal(err)
			}
			gen, err := rlnc.NewCoeffGenerator(field, k, secret)
			if err != nil {
				b.Fatal(err)
			}
			relay, err := rlnc.NewRecoder(params, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			for id := uint64(0); id < k; id++ {
				if err := relay.Absorb(rlnc.PacketFromMessage(gen, enc.Message(id))); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(params.ChunkBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := relay.Emit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoeffRow measures secret-coefficient derivation, the
// owner-side cost the coefficient-header mode trades for bandwidth.
func BenchmarkCoeffRow(b *testing.B) {
	for _, k := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			field := gf.MustNew(gf.Bits32)
			gen, err := rlnc.NewCoeffGenerator(field, k, make([]byte, rlnc.SecretLen))
			if err != nil {
				b.Fatal(err)
			}
			row := make([]uint32, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.RowInto(1, uint64(i), row)
			}
		})
	}
}

// BenchmarkWholeMessageCrossValidation runs the slot model with whole
// 256-kbit messages against its fluid split on the same saturated
// scenario and reports the worst disagreement between their
// steady-state rates.
func BenchmarkWholeMessageCrossValidation(b *testing.B) {
	uploads := []float64{200, 500, 800, 1100}
	var worst float64
	for i := 0; i < b.N; i++ {
		msgCfg := sim.Config{Slots: 3000, MessageKbits: 256}
		flCfg := sim.Config{Slots: 3000}
		for j, u := range uploads {
			p := sim.PeerConfig{Name: fmt.Sprintf("p%d", j), Upload: trace.Const(u), Demand: trace.Always{}}
			msgCfg.Peers = append(msgCfg.Peers, p)
			flCfg.Peers = append(flCfg.Peers, p)
		}
		msgRes, err := sim.Run(msgCfg)
		if err != nil {
			b.Fatal(err)
		}
		flRes, err := sim.Run(flCfg)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for j := range uploads {
			fl := flRes.MeanDownload(j, 2000, 3000)
			if dev := abs(msgRes.MeanDownload(j, 1500, 3000)-fl) / fl; dev > worst {
				worst = dev
			}
		}
	}
	b.ReportMetric(worst*100, "max_disagreement_%")
}

// BenchmarkQuantization reports the Sec. III-D fairness dilution: the
// worst fixed-point deviation at a huge message size relative to a
// small one.
func BenchmarkQuantization(b *testing.B) {
	var tbl *figures.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = figures.Quantization(2500, []float64{64, 16384})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tbl.Cells[0][0], "dev_small_msg")
	b.ReportMetric(tbl.Cells[1][0], "dev_large_msg")
}

// BenchmarkChurn reports fairness under rapid churn.
func BenchmarkChurn(b *testing.B) {
	var res *figures.ChurnResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = figures.Churn(10000, 6, 200, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Jain, "jain")
	b.ReportMetric(res.MinNormalized, "min_ratio")
}
