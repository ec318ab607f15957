package wire

import (
	"testing"

	"asymshare/internal/metrics"
)

// TestInstrumentCreatesSeriesForEveryType pins that a first scrape shows
// all four frame families for every defined type — GET_MUX, BUSY and
// the contract frames included — before any frame has moved.
func TestInstrumentCreatesSeriesForEveryType(t *testing.T) {
	reg := metrics.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	have := make(map[string]map[string]bool)
	for _, fam := range reg.Snapshot().Families {
		have[fam.Name] = make(map[string]bool)
		for _, s := range fam.Series {
			for _, l := range s.Labels {
				if l.Name == "type" {
					have[fam.Name][l.Value] = true
				}
			}
		}
	}
	for _, name := range []string{MetricFramesSent, MetricFramesRecv, MetricBytesSent, MetricBytesReceived} {
		for ty := TypeHello; ty <= lastType; ty++ {
			if !have[name][ty.String()] {
				t.Errorf("%s has no series for type %s after Instrument", name, ty)
			}
		}
	}
}
