package sim

import (
	"math"
	"testing"
)

// messageConfig is saturatedConfig with whole messages of the given
// size.
func messageConfig(uploads []float64, slots int, messageKbits float64) Config {
	cfg := saturatedConfig(uploads, slots)
	cfg.MessageKbits = messageKbits
	return cfg
}

// secondHalf is user i's mean download over the run's second half.
func secondHalf(r *Result, i int) float64 {
	return r.MeanDownload(i, r.Slots()/2, r.Slots())
}

func TestSaturatedConvergesToOwnUploadWholeMessages(t *testing.T) {
	// Message-granular service must find the same fixed point as the
	// fluid split: download -> own upload.
	uploads := []float64{128, 256, 1024}
	res, err := Run(messageConfig(uploads, 4000, 256))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range uploads {
		if got := secondHalf(res, i); math.Abs(got-u)/u > 0.12 {
			t.Errorf("peer %d: whole-message steady rate %v, want ~%v", i, got, u)
		}
	}
}

func TestConservationWholeMessages(t *testing.T) {
	uploads := []float64{100, 300, 700}
	cfg := messageConfig(uploads, 200, 256)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < cfg.Slots; tt++ {
		var down, up float64
		for i := range cfg.Peers {
			down += res.Download[i][tt]
			up += res.Upload[i][tt]
		}
		if math.Abs(down-up) > 1e-6 {
			t.Fatalf("slot %d: download %v != upload %v", tt, down, up)
		}
	}
	// Saturated peers send their full capacity, less what is still
	// banked: under one message each.
	for i, u := range uploads {
		sent := res.MeanUpload(i, 0, cfg.Slots) * float64(cfg.Slots)
		if want := u * float64(cfg.Slots); sent > want+1e-6 || sent < want-cfg.MessageKbits-1e-6 {
			t.Errorf("peer %d sent %v kbit, capacity %v", i, sent, want)
		}
	}
}

func TestCrossValidationAgainstFluidSim(t *testing.T) {
	// Same scenario with whole messages and with the fluid split;
	// steady-state rates must agree within a modest tolerance.
	uploads := []float64{200, 500, 800, 1100}
	msgRes, err := Run(messageConfig(uploads, 4000, 256))
	if err != nil {
		t.Fatal(err)
	}
	fluidRes, err := Run(saturatedConfig(uploads, 4000))
	if err != nil {
		t.Fatal(err)
	}
	for i := range uploads {
		msg := secondHalf(msgRes, i)
		fl := fluidRes.MeanDownload(i, 3000, 4000)
		if math.Abs(msg-fl)/fl > 0.15 {
			t.Errorf("peer %d: whole-message %v vs fluid %v kbps disagree", i, msg, fl)
		}
	}
}

func TestMessageSizeQuantizationEffect(t *testing.T) {
	// Very large messages make allocation lumpy but the long-run rates
	// must still land near the fixed point (Sec. III-D's reason to
	// avoid huge m: quantization errors dilute fairness).
	uploads := []float64{256, 512}
	small, err := Run(messageConfig(uploads, 4000, 64))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(messageConfig(uploads, 4000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range uploads {
		if got := secondHalf(small, i); math.Abs(got-u)/u > 0.12 {
			t.Errorf("small messages, peer %d: %v, want ~%v", i, got, u)
		}
		if got := secondHalf(large, i); math.Abs(got-u)/u > 0.35 {
			t.Errorf("large messages, peer %d: %v, want within 35%% of %v", i, got, u)
		}
	}
}
