// Command tracker runs the content-location service: peers announce
// which file-ids they hold, users look them up before fetching. It is
// discovery-only and never sees payloads, digests or secrets.
//
// Usage:
//
//	tracker [-listen 127.0.0.1:7000] [-ttl 10m] [-metrics 127.0.0.1:9091]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"asymshare/internal/metrics"
	"asymshare/internal/tracker"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tracker:", err)
		os.Exit(1)
	}
}

// run starts the tracker; if ready is non-nil the bound address is sent
// on it once listening (used by tests).
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("tracker", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7000", "listen address")
	ttl := fs.Duration("ttl", tracker.DefaultTTL, "maximum announcement lifetime")
	metricsAddr := fs.String("metrics", "", "serve Prometheus metrics on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv := tracker.NewServer(*ttl)
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		srv.Instrument(reg)
		msrv, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", msrv.Addr())
	}
	if err := srv.Start(*listen); err != nil {
		return err
	}
	fmt.Fprintf(out, "tracker listening on %s (max ttl %v)\n", srv.Addr(), *ttl)
	// Catch signals before announcing readiness: whoever waits on ready
	// may signal at once.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if ready != nil {
		ready <- srv.Addr().String()
	}
	<-ctx.Done()
	fmt.Fprintln(out, "shutting down")
	return srv.Close()
}
