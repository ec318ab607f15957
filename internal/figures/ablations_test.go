package figures

import "testing"

func TestLiarAblation(t *testing.T) {
	res, err := LiarAblation(1200)
	if err != nil {
		t.Fatal(err)
	}
	// Under Eq. (3) the liar's inflated declaration captures nearly all
	// of the honest peers' bandwidth; under Eq. (2) it gets ~nothing.
	if res.LiarRateEq3 < 500 {
		t.Errorf("liar under Eq.3 = %v, expected to capture most of 1024", res.LiarRateEq3)
	}
	if res.LiarRateEq2 > 0.05*res.HonestRateEq2 {
		t.Errorf("liar under Eq.2 = %v vs honest %v, expected starvation",
			res.LiarRateEq2, res.HonestRateEq2)
	}
	if res.HonestRateEq2 < 480 {
		t.Errorf("honest under Eq.2 = %v, want ~512", res.HonestRateEq2)
	}
}

func TestTitForTatAblation(t *testing.T) {
	res, err := TitForTatAblation(3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.JainEq2 < 0.99 {
		t.Errorf("Eq.2 Jain = %v, want ~1", res.JainEq2)
	}
	if res.JainTFT > 0.8 {
		t.Errorf("TFT Jain = %v, expected clearly unfair", res.JainTFT)
	}
	if len(res.DownloadsTFT) != len(res.Uploads) {
		t.Fatalf("result shape: %v vs %v", res.DownloadsTFT, res.Uploads)
	}
}

func TestDecayAblation(t *testing.T) {
	res, err := DecayAblation(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decay != 0.995 {
		t.Errorf("default decay = %v", res.Decay)
	}
	if res.RateDecayed >= res.RateCumulative {
		t.Errorf("decayed %v not adapting faster than cumulative %v",
			res.RateDecayed, res.RateCumulative)
	}
}

func TestRobustness(t *testing.T) {
	tbl, err := Robustness(RobustnessOptions{K: 8, KPrimes: []int{2, 4, 8}, MaxPeers: 5, Trials: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With full batches (k'=k) a single peer always suffices (batch
	// invertibility guarantee).
	if got := tbl.Cells[2][0]; got != 1 {
		t.Errorf("k'=k single peer success = %v, want 1", got)
	}
	// With k'=2 of k=8, fewer than 4 peers can never decode.
	for a := 1; a <= 3; a++ {
		if got := tbl.Cells[0][a-1]; got != 0 {
			t.Errorf("k'=2, %d peers success = %v, want 0", a, got)
		}
	}
	// With enough peers, success probability is high (w.h.p. over GF(2^8)).
	if got := tbl.Cells[0][4]; got < 0.9 {
		t.Errorf("k'=2, 5 peers success = %v, want ~1", got)
	}
	if got := tbl.Cells[1][2]; got < 0.9 {
		t.Errorf("k'=4, 3 peers success = %v, want ~1", got)
	}
	// Success is monotone in reachable peers for each row.
	for i := range tbl.Cells {
		for a := 1; a < len(tbl.Cells[i]); a++ {
			if tbl.Cells[i][a] < tbl.Cells[i][a-1] {
				t.Errorf("row %d not monotone: %v", i, tbl.Cells[i])
			}
		}
	}
}

func TestRobustnessValidation(t *testing.T) {
	if _, err := Robustness(RobustnessOptions{K: 4, KPrimes: []int{5}}); err == nil {
		t.Error("k' > k accepted")
	}
	if _, err := Robustness(RobustnessOptions{K: 4, KPrimes: []int{0}}); err == nil {
		t.Error("k' = 0 accepted")
	}
}

func TestChurnFairnessHolds(t *testing.T) {
	// Even with short exponential sessions the pairwise rule returns
	// each peer roughly what it contributed while online.
	tbl, err := ChurnSweep(12000, 6, []float64{200, 1600}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tbl.Rows {
		jain, minRatio := tbl.Cells[i][0], tbl.Cells[i][1]
		if jain < 0.98 {
			t.Errorf("session %s: Jain = %v", r, jain)
		}
		if minRatio < 0.9 {
			t.Errorf("session %s: min download/upload ratio = %v", r, minRatio)
		}
	}
}

func TestChurnValidation(t *testing.T) {
	res, err := Churn(0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanSessionSlots != 1000 {
		t.Errorf("defaults: %+v", res)
	}
}

func TestQuantizationFairnessDegradesWithMessageSize(t *testing.T) {
	tbl, err := Quantization(3000, []float64{64, 16384})
	if err != nil {
		t.Fatal(err)
	}
	small, large := tbl.Cells[0][0], tbl.Cells[1][0]
	if small > 0.1 {
		t.Errorf("small-message fairness error = %v, want < 0.1", small)
	}
	if large <= small {
		t.Errorf("large messages error %v not worse than small %v (Sec. III-D claim)", large, small)
	}
}
