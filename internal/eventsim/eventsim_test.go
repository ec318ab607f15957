package eventsim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"asymshare/internal/sim"
	"asymshare/internal/trace"
)

func saturated(uploads []float64, duration float64) Config {
	cfg := Config{Duration: duration, Seed: 1}
	for i, u := range uploads {
		cfg.Peers = append(cfg.Peers, PeerConfig{
			Name:       fmt.Sprintf("p%d", i),
			UploadKbps: u,
			Demand:     trace.Always{},
		})
	}
	return cfg
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Duration: 10}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no peers error = %v", err)
	}
	cfg := saturated([]float64{100}, 0)
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero duration error = %v", err)
	}
	cfg = saturated([]float64{100, 100}, 10)
	cfg.Peers[1].Name = "p0"
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("duplicate name error = %v", err)
	}
	cfg = saturated([]float64{100}, 10)
	cfg.Peers[0].Demand = nil
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil demand error = %v", err)
	}
}

func TestConservation(t *testing.T) {
	res, err := Run(saturated([]float64{100, 300, 700}, 500))
	if err != nil {
		t.Fatal(err)
	}
	var sent, received float64
	for i := range res.Names {
		sent += res.SentKbits[i]
		received += res.ReceivedKbits[i]
	}
	if math.Abs(sent-received) > 1e-6 {
		t.Fatalf("sent %v != received %v", sent, received)
	}
	// Saturated peers transmit at close to full line rate.
	for i, u := range []float64{100, 300, 700} {
		rate := res.SentKbits[i] / res.Duration
		if rate < 0.9*u {
			t.Errorf("peer %d sent at %v kbps, capacity %v", i, rate, u)
		}
	}
}

func TestSaturatedConvergesToOwnUploadEventDriven(t *testing.T) {
	// The stochastic, message-granular model must find the same fixed
	// point as the fluid model: download -> own upload.
	uploads := []float64{128, 256, 1024}
	res, err := Run(saturated(uploads, 4000))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range uploads {
		got := res.MeanRateKbps(i)
		if math.Abs(got-u)/u > 0.12 {
			t.Errorf("peer %d: event-driven steady rate %v, want ~%v", i, got, u)
		}
	}
}

func TestCrossValidationAgainstFluidSim(t *testing.T) {
	// Same scenario in both simulators; steady-state rates must agree
	// within a modest tolerance.
	uploads := []float64{200, 500, 800, 1100}

	evRes, err := Run(saturated(uploads, 4000))
	if err != nil {
		t.Fatal(err)
	}

	fluidCfg := sim.Config{Slots: 4000}
	for i, u := range uploads {
		fluidCfg.Peers = append(fluidCfg.Peers, sim.PeerConfig{
			Name:   fmt.Sprintf("p%d", i),
			Upload: trace.Const(u),
			Demand: trace.Always{},
		})
	}
	fluidRes, err := sim.Run(fluidCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range uploads {
		ev := evRes.MeanRateKbps(i)
		fl := fluidRes.MeanDownload(i, 3000, 4000)
		if math.Abs(ev-fl)/fl > 0.15 {
			t.Errorf("peer %d: event %v vs fluid %v kbps disagree", i, ev, fl)
		}
	}
}

func TestFreeloaderStarvedEventDriven(t *testing.T) {
	cfg := Config{Duration: 3000, Seed: 2}
	cfg.Peers = []PeerConfig{
		{Name: "free", UploadKbps: 0, Demand: trace.Always{}},
		{Name: "a", UploadKbps: 500, Demand: trace.Always{}},
		{Name: "b", UploadKbps: 500, Demand: trace.Always{}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	free := res.MeanRateKbps(0)
	honest := res.MeanRateKbps(1)
	if free > 0.05*honest {
		t.Errorf("freeloader %v vs honest %v kbps", free, honest)
	}
}

func TestIdleDemandGetsNothing(t *testing.T) {
	cfg := Config{Duration: 500, Seed: 3}
	cfg.Peers = []PeerConfig{
		{Name: "idle", UploadKbps: 500, Demand: trace.Never{}},
		{Name: "busy", UploadKbps: 500, Demand: trace.Always{}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReceivedKbits[0] != 0 {
		t.Errorf("idle user received %v", res.ReceivedKbits[0])
	}
	// The busy user absorbs both peers' capacity.
	busy := res.MeanRateKbps(1)
	if busy < 0.9*1000 {
		t.Errorf("busy user rate %v, want ~1000", busy)
	}
}

func TestMessageSizeQuantizationEffect(t *testing.T) {
	// Very large messages make allocation lumpy but the long-run rates
	// must still land near the fixed point (Sec. III-D's reason to
	// avoid huge m: quantization errors dilute fairness).
	uploads := []float64{256, 512}
	small, err := Run(Config{
		Duration: 4000, Seed: 4, MessageKbits: 64,
		Peers: saturated(uploads, 1).Peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(Config{
		Duration: 4000, Seed: 4, MessageKbits: 4096,
		Peers: saturated(uploads, 1).Peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range uploads {
		if got := small.MeanRateKbps(i); math.Abs(got-u)/u > 0.12 {
			t.Errorf("small messages, peer %d: %v, want ~%v", i, got, u)
		}
		if got := large.MeanRateKbps(i); math.Abs(got-u)/u > 0.35 {
			t.Errorf("large messages, peer %d: %v, want within 35%% of %v", i, got, u)
		}
	}
}

// TestMeanRateWholeWindows: a lone saturated 256 kbps peer sends one
// 256 kbit message a second to its own user, so every window inside
// the horizon reads its line rate. A window past the horizon, averaged
// in empty, read 213.3.
func TestMeanRateWholeWindows(t *testing.T) {
	res, err := Run(saturated([]float64{256}, 100))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.WindowRate[0]); got != 10 {
		t.Errorf("%d windows in 100 s, want 10", got)
	}
	if got := res.MeanRateKbps(0); got != 256 {
		t.Errorf("MeanRateKbps = %v, want 256", got)
	}
}
