package figures

// Quantization: Sec. III-D argues against very large message sizes m
// because they "dilute our notion of fairness ... by introducing
// quantization errors when nodes divide up their upload bandwidth
// amongst requesting users". The slot model's whole-message mode makes
// this measurable: fairness error versus message size.

import (
	"fmt"
	"math"

	"asymshare/internal/sim"
	"asymshare/internal/trace"
)

// Quantization runs the saturated heterogeneous scenario with whole
// messages of each size and reports, for each, the worst relative
// deviation of a user's mean download over the second half of the run
// from its upload capacity (the Eq. 2 fixed point). slots <= 0 means
// 4000.
func Quantization(slots int, messageKbits []float64) (*Table, error) {
	if slots <= 0 {
		slots = 4000
	}
	if len(messageKbits) == 0 {
		messageKbits = []float64{64, 256, 1024, 4096, 16384}
	}
	uploads := []float64{128, 256, 512, 1024}

	t := &Table{
		ID:       "quantization",
		Title:    "fairness error vs message size (whole messages, saturated 128/256/512/1024)",
		RowLabel: "message (kbit)",
		ColLabel: "metric",
		Cols:     []string{"worst_dev_frac"},
		Format:   "%.4f",
	}
	for _, mk := range messageKbits {
		cfg := sim.Config{Slots: slots, MessageKbits: mk}
		for i, u := range uploads {
			cfg.Peers = append(cfg.Peers, sim.PeerConfig{
				Name:   fmt.Sprintf("p%d", i),
				Upload: trace.Const(u),
				Demand: trace.Always{},
			})
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		worst := 0.0
		for i, u := range uploads {
			dev := math.Abs(res.MeanDownload(i, slots/2, slots)-u) / u
			if dev > worst {
				worst = dev
			}
		}
		t.Rows = append(t.Rows, fmt.Sprintf("%.0f", mk))
		t.Cells = append(t.Cells, []float64{worst})
	}
	return t, nil
}
