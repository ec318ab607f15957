package metrics

// Exposition: Prometheus text format (version 0.0.4), an opt-in
// net/http listener that also serves expvar and the runtime profiles,
// and expvar publication. The text format is a
// contract: golden-tested in expose_test.go.

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
)

// escapeHelp escapes a HELP line per the text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the text format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// writeLabels writes {a="b",c="d"} including an extra trailing label
// (used for histogram le), or nothing if there are no labels.
func writeLabels(w *bufio.Writer, labels []Label, extraName, extraValue string) {
	if len(labels) == 0 && extraName == "" {
		return
	}
	w.WriteByte('{')
	first := true
	for _, l := range labels {
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, `%s="%s"`, l.Name, escapeLabel(l.Value))
	}
	if extraName != "" {
		if !first {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, `%s="%s"`, extraName, extraValue)
	}
	w.WriteByte('}')
}

// WritePrometheus writes the registry contents in Prometheus text
// format. Families appear sorted by name; a family with no series yet
// still contributes its HELP and TYPE lines, so the full metric
// contract is visible from the first scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	snap := r.Snapshot()
	for _, f := range snap.Families {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind.PromType())
		for _, s := range f.Series {
			switch f.Kind {
			case KindCounter:
				bw.WriteString(f.Name)
				writeLabels(bw, s.Labels, "", "")
				fmt.Fprintf(bw, " %d\n", uint64(s.Value))
			case KindGauge, KindRate:
				bw.WriteString(f.Name)
				writeLabels(bw, s.Labels, "", "")
				fmt.Fprintf(bw, " %g\n", s.Value)
			case KindHistogram:
				writeHistogram(bw, f.Name, s)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram emits cumulative _bucket lines, _sum and _count. Only
// buckets up to the highest populated one are emitted (plus +Inf), so
// idle histograms stay compact.
func writeHistogram(w *bufio.Writer, name string, s SeriesSnapshot) {
	h := s.Hist
	div := h.Unit.divisor()
	highest := -1
	for i := histBuckets - 1; i >= 0; i-- {
		if h.Buckets[i] > 0 {
			highest = i
			break
		}
	}
	var cum uint64
	for i := 0; i <= highest; i++ {
		cum += h.Buckets[i]
		w.WriteString(name)
		w.WriteString("_bucket")
		writeLabels(w, s.Labels, "le", fmt.Sprintf("%g", float64(bucketUpper(i))/div))
		fmt.Fprintf(w, " %d\n", cum)
	}
	w.WriteString(name)
	w.WriteString("_bucket")
	writeLabels(w, s.Labels, "le", "+Inf")
	fmt.Fprintf(w, " %d\n", h.Count)
	w.WriteString(name)
	w.WriteString("_sum")
	writeLabels(w, s.Labels, "", "")
	fmt.Fprintf(w, " %g\n", h.SumScaled())
	w.WriteString(name)
	w.WriteString("_count")
	writeLabels(w, s.Labels, "", "")
	fmt.Fprintf(w, " %d\n", h.Count)
}

// Handler returns an http.Handler serving the Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Server is a running metrics listener.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	once sync.Once
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close shuts the listener down.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() { err = s.srv.Close() })
	return err
}

// Serve starts an HTTP listener exposing the registry at /metrics, the
// process expvar map at /debug/vars, and net/http/pprof's profiles
// under /debug/pprof/ (index, cmdline, CPU profile, symbol, trace, and
// every named profile: goroutine, heap, allocs, block, mutex,
// threadcreate). Whoever reaches addr can start CPU profiles and
// traces, so it belongs on loopback or behind a firewall. It returns
// once the listener is bound; serving continues in the background until
// Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index) // named profiles too
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	s := &Server{ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// PublishExpvar publishes the registry under the given expvar name as
// a JSON map of metric name (plus label suffix) to scalar value;
// histograms publish their count, sum and mean. Publishing the same
// name twice is a no-op (expvar forbids duplicates).
func (r *Registry) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any {
		out := make(map[string]float64)
		for _, f := range r.Snapshot().Families {
			for _, s := range f.Series {
				key := f.Name
				if len(s.Labels) > 0 {
					parts := make([]string, 0, len(s.Labels))
					for _, l := range s.Labels {
						parts = append(parts, l.Name+"="+l.Value)
					}
					key += "{" + strings.Join(parts, ",") + "}"
				}
				if f.Kind == KindHistogram {
					out[key+".count"] = float64(s.Hist.Count)
					out[key+".sum"] = s.Hist.SumScaled()
					out[key+".mean"] = s.Hist.Mean()
				} else {
					out[key] = s.Value
				}
			}
		}
		return out
	}))
}
