// Command dhtnode runs one node of the Kademlia-style content-location
// DHT — the decentralized alternative to cmd/tracker. Nodes joined into
// the same network replicate announcements on the K nodes closest to
// each key, so any node resolves any announced file-id.
//
// Usage:
//
//	dhtnode -listen 10.0.0.5:7500 [-join 10.0.0.1:7500] [-ttl 10m]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asymshare/internal/dht"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dhtnode:", err)
		os.Exit(1)
	}
}

// run starts the node; if ready is non-nil the bound address is sent on
// it once serving (used by tests).
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("dhtnode", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7500", "listen address (also advertised)")
	join := fs.String("join", "", "bootstrap node address to join through")
	ttl := fs.Duration("ttl", dht.DefaultTTL, "maximum announcement lifetime")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("dhtnode: listen: %w", err)
	}
	node, err := dht.NewNode(ln.Addr().String(), *ttl)
	if err != nil {
		ln.Close()
		return err
	}
	if err := node.StartListener(ln); err != nil {
		ln.Close()
		return err
	}
	fmt.Fprintf(out, "dht node %s listening on %s\n", node.ID().String()[:16], node.Addr())
	if *join != "" {
		joinCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := node.Join(joinCtx, *join)
		cancel()
		if err != nil {
			node.Close()
			return err
		}
		fmt.Fprintf(out, "joined via %s; table holds %d contacts\n", *join, node.TableSize())
	}
	// Catch signals before announcing readiness: whoever waits on ready
	// may signal at once.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if ready != nil {
		ready <- node.Addr()
	}
	<-ctx.Done()
	fmt.Fprintln(out, "shutting down")
	return node.Close()
}
