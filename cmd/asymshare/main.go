// Command asymshare is the end-user tool: generate an identity, run a
// storage peer, share a file to a set of peers, and fetch it back from
// anywhere — the full workflow of the paper.
//
// Usage:
//
//	asymshare keygen  -out user.key
//	asymshare serve   -key peer.key -listen :7070 -store ./data -upload 262144
//	asymshare serve   -key peer.key -store ./data -policy eq2 -estimate ewma   # adaptive allocation
//	asymshare share   -key user.key -file video.mpg -peers a:7070,b:7070 -out video.handle
//	asymshare fetch   -key user.key -handle video.handle -secret <hex> -out video.mpg
//
// Trackerless mode (DHT discovery + rumor gossip; no tracker anywhere):
//
//	asymshare serve   -key peer.key -store ./data -dht-listen :7272 -gossip-listen :7373          # bootstrap
//	asymshare serve   -key peer2.key -store ./data2 -dht boot:7272 -gossip-listen :7374           # joins swarm
//	asymshare share   -key user.key -file video.mpg -gossip -dht boot:7272
//	asymshare fetch   -key user.key -handle video.mpg.handle -secret <hex> -dht boot:7272 -out video.mpg
//
// Other commands:
//
//	asymshare update  -key user.key -handle video.handle -secret <hex> -old v1.mpg -new v2.mpg
//	asymshare list    -key user.key -peer host:7070
//	asymshare audit   -key user.key -handle video.handle
//	asymshare spotcheck -key user.key -handle video.handle -secret <hex> [-sample 8] [-feedback host:7070]
//	asymshare auditdemo [-honest 2] [-size 4096] [-sample 8]
//	asymshare repair  -key user.key -handle video.handle -secret <hex> -file video.mpg
//	asymshare contracts -key user.key -peer host:7070
//	asymshare stats   -addr 127.0.0.1:9090 [-filter peer_]
//
// Storage peers advertise a contract capacity with `serve -capacity`
// (bytes; 0 = unlimited) and journal accepted obligations across
// restarts with `serve -contracts <path>`.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/dht"
	"asymshare/internal/discovery"
	"asymshare/internal/estimate"
	"asymshare/internal/fairshare"
	"asymshare/internal/fsx"
	"asymshare/internal/gossip"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/ring"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "asymshare:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: asymshare <keygen|serve|share|fetch> [flags]")
	}
	switch args[0] {
	case "keygen":
		return cmdKeygen(args[1:], out)
	case "serve":
		return cmdServe(args[1:], out)
	case "share":
		return cmdShare(args[1:], out)
	case "fetch":
		return cmdFetch(args[1:], out)
	case "update":
		return cmdUpdate(args[1:], out)
	case "list":
		return cmdList(args[1:], out)
	case "audit":
		return cmdAudit(args[1:], out)
	case "spotcheck":
		return cmdSpotCheck(args[1:], out)
	case "auditdemo":
		return cmdAuditDemo(args[1:], out)
	case "repair":
		return cmdRepair(args[1:], out)
	case "contracts":
		return cmdContracts(args[1:], out)
	case "stats":
		return cmdStats(args[1:], out)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// loadIdentity reads a 32-byte hex seed from a key file.
func loadIdentity(path string) (*auth.Identity, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	seed, err := hex.DecodeString(strings.TrimSpace(string(blob)))
	if err != nil {
		return nil, fmt.Errorf("key file %s: %w", path, err)
	}
	return auth.IdentityFromSeed(seed)
}

func cmdKeygen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("keygen", flag.ContinueOnError)
	outPath := fs.String("out", "", "file to write the key seed to (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return errors.New("keygen: -out is required")
	}
	seed := make([]byte, 32)
	if _, err := rand.Read(seed); err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, []byte(hex.EncodeToString(seed)+"\n"), 0o600); err != nil {
		return err
	}
	id, err := auth.IdentityFromSeed(seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\npublic key: %x\nfingerprint: %s\n", *outPath, id.Public(), id.Fingerprint())
	return nil
}

// parsePolicy maps the -policy flag to an allocator. weights is the
// -class-weights spec ("1:2,2:4"), meaningful only for classes.
func parsePolicy(name, weights string) (fairshare.Allocator, error) {
	if weights != "" && name != "classes" {
		return nil, fmt.Errorf("-class-weights requires -policy classes (got %q)", name)
	}
	switch name {
	case "eq2":
		return fairshare.PairwiseProportional{}, nil
	case "eq3":
		// The CLI carries no declaration channel yet, so every requester
		// declares zero and the policy equal-splits; the flag exists so
		// the baseline is runnable end to end.
		return fairshare.GlobalProportional{}, nil
	case "equal":
		return fairshare.EqualSplit{}, nil
	case "bci":
		return fairshare.BiasedContribution{}, nil
	case "classes":
		w, err := parseClassWeights(weights)
		if err != nil {
			return nil, err
		}
		return fairshare.Classes{Weights: w}, nil
	default:
		return nil, fmt.Errorf("unknown -policy %q (want eq2, eq3, equal, bci, or classes)", name)
	}
}

// parseClassWeights parses "class:weight,class:weight" pairs.
func parseClassWeights(spec string) (map[fairshare.ServiceClass]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[fairshare.ServiceClass]float64)
	for _, pair := range strings.Split(spec, ",") {
		c, w, ok := strings.Cut(pair, ":")
		if !ok {
			return nil, fmt.Errorf("malformed -class-weights entry %q (want class:weight)", pair)
		}
		class, err := strconv.ParseUint(strings.TrimSpace(c), 10, 8)
		if err != nil {
			return nil, fmt.Errorf("class in %q: %w", pair, err)
		}
		weight, err := strconv.ParseFloat(strings.TrimSpace(w), 64)
		if err != nil {
			return nil, fmt.Errorf("weight in %q: %w", pair, err)
		}
		out[fairshare.ServiceClass(class)] = weight
	}
	return out, nil
}

// parseEstimator maps the -estimate flag to a capacity estimator (nil
// for off: the node divides the configured -upload constant).
func parseEstimator(name string) (estimate.Estimator, error) {
	switch name {
	case "off", "":
		return nil, nil
	case "ewma":
		return estimate.NewHistory(0, 0), nil
	case "probe":
		return estimate.NewProbe(0, 0), nil
	default:
		return nil, fmt.Errorf("unknown -estimate %q (want off, ewma, or probe)", name)
	}
}

func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	keyPath := fs.String("key", "", "peer key file (required)")
	listen := fs.String("listen", "127.0.0.1:7070", "listen address")
	storeDir := fs.String("store", "", "message store directory (required)")
	upload := fs.Float64("upload", 0, "upload capacity in bytes/s (0 = unshaped; with -estimate, a ceiling on the estimate)")
	maxStreams := fs.Int("max-streams", 0, "admission cap on concurrently served download streams; excess requests are shed BUSY with a retry-after hint (0 = unlimited)")
	policyName := fs.String("policy", "eq2", "allocation policy: eq2 (pairwise proportional), eq3 (declared upload; degrades to equal without declarations), bci (biased contribution index), classes (class-weighted), equal")
	classWeights := fs.String("class-weights", "", "service-class weights for -policy classes, e.g. 1:2,2:4 (unlisted classes weigh 1)")
	estName := fs.String("estimate", "off", "online upload-capacity estimation: off, ewma (percentile-of-history), probe (packet-train max)")
	ownerHex := fs.String("owner", "", "owner public key (hex) allowed to send feedback")
	ledgerPath := fs.String("ledger", "", "receipt-ledger checkpoint file persisted across restarts (and crashes)")
	ckptEvery := fs.Duration("checkpoint", fairshare.DefaultCheckpointInterval, "ledger checkpoint interval")
	metricsAddr := fs.String("metrics", "", "serve Prometheus metrics and expvar on this address (e.g. 127.0.0.1:9090)")
	capacity := fs.Int64("capacity", 0, "advertised storage-contract capacity in bytes (0 = unlimited)")
	contractPath := fs.String("contracts", "", "contract-book journal file persisted across restarts (and crashes)")
	dhtBootstrap := fs.String("dht", "", "join the DHT through this bootstrap node (trackerless mode)")
	dhtListen := fs.String("dht-listen", "", "serve DHT RPCs on this address (default 127.0.0.1:0 when -dht or -gossip-listen is set)")
	gossipListen := fs.String("gossip-listen", "", "run a gossip engine over the peer's store on this address (requires the DHT node)")
	gossipEvery := fs.Duration("gossip-interval", 2*time.Second, "background gossip round interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *storeDir == "" {
		return errors.New("serve: -key and -store are required")
	}
	id, err := loadIdentity(*keyPath)
	if err != nil {
		return err
	}
	st, err := store.OpenDisk(*storeDir)
	if err != nil {
		return err
	}
	if rec := st.Recovery(); rec.TruncatedTails > 0 || rec.QuarantinedFiles > 0 || rec.MigratedLegacy > 0 {
		fmt.Fprintf(out, "store recovery: %d torn tails truncated, %d files quarantined, %d legacy files migrated\n",
			rec.TruncatedTails, rec.QuarantinedFiles, rec.MigratedLegacy)
	}
	policy, err := parsePolicy(*policyName, *classWeights)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	est, err := parseEstimator(*estName)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if *maxStreams < 0 {
		return errors.New("serve: -max-streams must be >= 0")
	}
	cfg := peer.Config{
		Identity:           id,
		Store:              st,
		UploadBytesPerSec:  *upload,
		MaxStreams:         *maxStreams,
		Allocator:          policy,
		Estimator:          est,
		LedgerPath:         *ledgerPath,
		CheckpointInterval: *ckptEvery,
		CapacityBytes:      *capacity,
		ContractPath:       *contractPath,
		Logger:             slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}
	var msrv *metrics.Server
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		wire.Instrument(reg)
		reg.PublishExpvar("asymshare")
		srv, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		msrv = srv
		defer msrv.Close()
	}
	if *ownerHex != "" {
		owner, err := hex.DecodeString(*ownerHex)
		if err != nil || len(owner) != 32 {
			return fmt.Errorf("serve: invalid -owner key")
		}
		cfg.Owner = owner
	}
	node, err := peer.New(cfg)
	if err != nil {
		return err
	}
	if *ledgerPath != "" {
		rec := node.LedgerRecovery()
		switch {
		case rec.Loaded:
			fmt.Fprintf(out, "ledger recovered from %s (generation %d)\n", *ledgerPath, rec.Gen)
		case rec.CorruptSlots > 0:
			fmt.Fprintf(out, "ledger slots at %s unreadable (%d corrupt); starting fresh\n", *ledgerPath, rec.CorruptSlots)
		default:
			fmt.Fprintf(out, "no ledger at %s; starting fresh\n", *ledgerPath)
		}
	}
	if *contractPath != "" {
		rec := node.ContractRecovery()
		switch {
		case rec.Active > 0 || rec.Records > 0:
			fmt.Fprintf(out, "contract book recovered from %s (%d active obligations", *contractPath, rec.Active)
			if rec.Truncated {
				fmt.Fprint(out, ", torn tail truncated")
			}
			fmt.Fprintln(out, ")")
		default:
			fmt.Fprintf(out, "no contract book at %s; starting fresh\n", *contractPath)
		}
	}
	if err := node.Start(*listen); err != nil {
		return err
	}
	fmt.Fprintf(out, "peer %s serving on %s (store %s)\n", id.Fingerprint(), node.Addr(), *storeDir)
	fmt.Fprintf(out, "allocation: policy %s, estimator %s\n", *policyName, *estName)
	if msrv != nil {
		fmt.Fprintf(out, "metrics on http://%s/metrics (expvar at /debug/vars)\n", msrv.Addr())
	}

	// Trackerless mode: a serving DHT node makes this peer discoverable
	// (and a routing/replica host for others), and a gossip engine over
	// the same store spreads rumored generations — announcing this
	// peer's serve address for each one it completes.
	if *gossipListen != "" && *dhtListen == "" && *dhtBootstrap == "" {
		return errors.New("serve: -gossip-listen requires a DHT node (-dht or -dht-listen)")
	}
	if *dhtListen != "" || *dhtBootstrap != "" {
		laddr := *dhtListen
		if laddr == "" {
			laddr = "127.0.0.1:0"
		}
		dln, err := net.Listen("tcp", laddr)
		if err != nil {
			return err
		}
		var gln net.Listener
		gossipAddr := ""
		if *gossipListen != "" {
			// Bind before dht.New so the address rides in contact records.
			if gln, err = net.Listen("tcp", *gossipListen); err != nil {
				dln.Close()
				return err
			}
			gossipAddr = gln.Addr().String()
		}
		dnode, err := dht.New(dht.Config{
			Advertise:  dln.Addr().String(),
			ServeAddr:  node.Addr().String(),
			GossipAddr: gossipAddr,
			Metrics:    cfg.Metrics,
		})
		if err != nil {
			dln.Close()
			return err
		}
		if err := dnode.StartListener(dln); err != nil {
			dln.Close()
			return err
		}
		defer dnode.Close()
		if *dhtBootstrap != "" {
			jctx, jcancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := dnode.Join(jctx, *dhtBootstrap)
			jcancel()
			if err != nil {
				return fmt.Errorf("serve: dht join: %w", err)
			}
			fmt.Fprintf(out, "dht node %s joined via %s (%d contacts)\n", dnode.Addr(), *dhtBootstrap, dnode.TableSize())
		} else {
			fmt.Fprintf(out, "dht bootstrap node on %s\n", dnode.Addr())
		}
		if gln != nil {
			eng, err := gossip.New(gossip.Config{
				Advertise:     gossipAddr,
				Store:         st,
				RoundInterval: *gossipEvery,
				Metrics:       cfg.Metrics,
				Contacts: func(n int) []string {
					cs := dnode.RandomContacts(n)
					addrs := make([]string, 0, len(cs))
					for _, c := range cs {
						if c.Gossip != "" {
							addrs = append(addrs, c.Gossip)
						}
					}
					return addrs
				},
				Announce: func(fileID uint64) {
					go func() {
						actx, acancel := context.WithTimeout(context.Background(), 30*time.Second)
						defer acancel()
						_ = dnode.Announce(actx, dht.KeyFromFileID(fileID), node.Addr().String(), 0)
					}()
				},
			})
			if err != nil {
				gln.Close()
				return err
			}
			if err := eng.StartListener(gln); err != nil {
				gln.Close()
				return err
			}
			defer eng.Close()
			fmt.Fprintf(out, "gossip engine on %s (round every %s)\n", gossipAddr, *gossipEvery)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(out, "shutting down")
	// Close cancels the checkpointer's context, which writes the final
	// ledger checkpoint before Close returns — no save call needed here,
	// and a crash instead of an orderly shutdown costs at most one
	// checkpoint interval.
	if err := node.Close(); err != nil {
		return err
	}
	if *ledgerPath != "" {
		fmt.Fprintf(out, "ledger checkpointed to %s (generation %d)\n", *ledgerPath, node.CheckpointGen())
	}
	return nil
}

func cmdShare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("share", flag.ContinueOnError)
	keyPath := fs.String("key", "", "user key file (required)")
	filePath := fs.String("file", "", "file to share (required)")
	peers := fs.String("peers", "", "comma-separated peer addresses (required)")
	outPath := fs.String("out", "", "handle output path (default <file>.handle)")
	trackerAddr := fs.String("tracker", "", "tracker to announce the share to")
	dhtAddr := fs.String("dht", "", "DHT bootstrap node to announce the share through")
	replicas := fs.Int("replicas", 0, "ring placement: store each chunk on N peers (0 = every peer)")
	gossipMode := fs.Bool("gossip", false, "disseminate by rumor gossip through the DHT swarm instead of direct pushes (requires -dht; -peers unused)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *filePath == "" {
		return errors.New("share: -key and -file are required")
	}
	if *gossipMode && *dhtAddr == "" {
		return errors.New("share: -gossip requires -dht")
	}
	if !*gossipMode && *peers == "" {
		return errors.New("share: -peers is required (or use -gossip)")
	}
	id, err := loadIdentity(*keyPath)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*filePath)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(id, nil)
	if err != nil {
		return err
	}
	if *gossipMode {
		return shareGossip(sys, *filePath, data, *dhtAddr, *outPath, out)
	}
	addrs := strings.Split(*peers, ",")
	var res *core.ShareResult
	if *replicas > 0 {
		r, err := ring.New(addrs, 0)
		if err != nil {
			return err
		}
		res, err = sys.ShareFilePlaced(context.Background(), *filePath, data, r, *replicas)
		if err != nil {
			return err
		}
	} else {
		var err error
		res, err = sys.ShareFile(context.Background(), *filePath, data, addrs)
		if err != nil {
			return err
		}
	}
	handlePath := *outPath
	if handlePath == "" {
		handlePath = *filePath + ".handle"
	}
	// The handle is the only way back to the file; write it durably.
	if err := core.SaveHandleFile(handlePath, &res.Handle); err != nil {
		return err
	}
	fmt.Fprintf(out, "shared %d bytes as %d messages to %d peers\nhandle: %s\nsecret (keep private!): %s\n",
		len(data), res.MessagesSent, len(addrs), handlePath, hex.EncodeToString(res.Secret))
	if *trackerAddr != "" {
		d, err := discovery.NewTracker(*trackerAddr, nil)
		if err != nil {
			return err
		}
		if err := sys.AnnounceHandleVia(context.Background(), d, &res.Handle, 0); err != nil {
			return err
		}
		fmt.Fprintf(out, "announced %d chunks to tracker %s\n", len(res.Handle.Manifest.Chunks), *trackerAddr)
	}
	if *dhtAddr != "" {
		d, err := dhtDiscovery(*dhtAddr)
		if err != nil {
			return err
		}
		defer d.Close()
		if err := sys.AnnounceHandleVia(context.Background(), d, &res.Handle, 0); err != nil {
			return err
		}
		fmt.Fprintf(out, "announced %d chunks via DHT bootstrap %s\n", len(res.Handle.Manifest.Chunks), *dhtAddr)
	}
	return nil
}

// shareGossip seeds the encoded file into a transient local gossip
// engine and rumors it into the DHT swarm: each round pushes to random
// gossip-capable contacts from the routing table, receiving peers
// announce themselves as they complete generations, and the engine
// exits once every rumor has gone cold. The handle carries no peer
// list — fetchers resolve holders through the DHT (fetch -dht).
func shareGossip(sys *core.System, filePath string, data []byte, dhtAddr, outPath string, out io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	node, err := joinDHT(dhtAddr)
	if err != nil {
		return err
	}
	defer node.Close()
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	eng, err := gossip.New(gossip.Config{
		Advertise: gln.Addr().String(),
		Store:     store.NewMemory(),
		Contacts: func(n int) []string {
			cs := node.RandomContacts(n)
			addrs := make([]string, 0, len(cs))
			for _, c := range cs {
				if c.Gossip != "" {
					addrs = append(addrs, c.Gossip)
				}
			}
			return addrs
		},
	})
	if err != nil {
		gln.Close()
		return err
	}
	if err := eng.StartListener(gln); err != nil {
		gln.Close()
		return err
	}
	defer eng.Close()

	res, err := sys.ShareFileGossip(ctx, filePath, data, eng, "")
	if err != nil {
		return err
	}
	rounds, moved := 0, 0
	for len(eng.HotRumors()) > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("share: gossip dissemination timed out after %d rounds: %w", rounds, err)
		}
		n, err := eng.Round(ctx)
		if err != nil {
			return err
		}
		rounds++
		moved += n
	}
	if moved == 0 {
		return errors.New("share: no gossip-capable peers reachable through the DHT — are peers running serve -gossip-listen?")
	}
	handlePath := outPath
	if handlePath == "" {
		handlePath = filePath + ".handle"
	}
	if err := core.SaveHandleFile(handlePath, &res.Handle); err != nil {
		return err
	}
	fmt.Fprintf(out, "gossiped %d bytes as %d seed messages; %d messages moved in %d rounds\nhandle: %s\nsecret (keep private!): %s\nfetch with: asymshare fetch -dht %s ...\n",
		len(data), res.MessagesSent, moved, rounds, handlePath, hex.EncodeToString(res.Secret), dhtAddr)
	return nil
}

// joinDHT joins the DHT as a client-only node through a bootstrap.
func joinDHT(bootstrap string) (*dht.Node, error) {
	node, err := dht.NewNode("client/"+bootstrap, 0)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := node.Join(ctx, bootstrap); err != nil {
		node.Close()
		return nil, err
	}
	return node, nil
}

// dhtDiscovery joins the DHT through a bootstrap and resolves and
// announces through it, once: records are not re-announced, and Close
// leaves the DHT.
func dhtDiscovery(bootstrap string) (discovery.Discovery, error) {
	node, err := joinDHT(bootstrap)
	if err != nil {
		return nil, err
	}
	d, err := discovery.NewDHT(node, discovery.DHTOptions{ReannounceInterval: -1, OwnNode: true})
	if err != nil {
		node.Close()
		return nil, err
	}
	return d, nil
}

func cmdFetch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fetch", flag.ContinueOnError)
	keyPath := fs.String("key", "", "user key file (required)")
	handlePath := fs.String("handle", "", "handle file from 'share' (required)")
	secretHex := fs.String("secret", "", "hex coding secret from 'share' (required)")
	outPath := fs.String("out", "", "output path (required)")
	feedback := fs.String("feedback", "", "own peer address to report receipts to")
	trackerAddr := fs.String("tracker", "", "resolve peers through this tracker instead of the handle's list")
	dhtAddr := fs.String("dht", "", "resolve peers through the DHT via this bootstrap node")
	hedge := fs.Bool("hedge", false, "resilient chunk scheduling: start each chunk on the healthiest peer, re-issue stalled streams on the next, quarantine repeat offenders behind circuit breakers")
	deadline := fs.Duration("deadline", 0, "abandon the fetch after this long; propagated to peers so they drop work that can no longer arrive in time (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *handlePath == "" || *secretHex == "" || *outPath == "" {
		return errors.New("fetch: -key, -handle, -secret and -out are required")
	}
	id, err := loadIdentity(*keyPath)
	if err != nil {
		return err
	}
	secret, err := hex.DecodeString(strings.TrimSpace(*secretHex))
	if err != nil {
		return fmt.Errorf("fetch: bad secret: %w", err)
	}
	handle, err := core.LoadHandleFile(*handlePath)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(id, nil, core.WithClientOptions(client.Options{Hedge: *hedge}))
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	var d discovery.Discovery
	switch {
	case *dhtAddr != "":
		d, err = dhtDiscovery(*dhtAddr)
	case *trackerAddr != "":
		d, err = discovery.NewTracker(*trackerAddr, nil)
	}
	if err != nil {
		return err
	}
	var (
		data  []byte
		stats client.FetchStats
	)
	if d != nil {
		defer d.Close()
		data, stats, err = sys.FetchFileVia(ctx, d, &handle.Manifest, secret)
	} else {
		data, stats, err = sys.FetchFile(ctx, handle, secret)
	}
	if err != nil {
		return err
	}
	// Atomic so an interrupted fetch never leaves a truncated output
	// file that looks complete.
	if err := fsx.WriteFileAtomic(fsx.OS, *outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "fetched %d bytes in %v (%.0f B/s) from %d peers; %d msgs (%d innovative, %d rejected); %d surplus bytes read after STOP\n",
		len(data), stats.Elapsed.Round(1e6), stats.EffectiveRate(len(data)),
		len(stats.BytesFrom), stats.Messages, stats.Innovative, stats.Rejected, stats.SurplusBytes)
	if *feedback != "" {
		if err := sys.ReportFeedback(ctx, *feedback, stats); err != nil {
			return fmt.Errorf("fetch: feedback: %w", err)
		}
		fmt.Fprintln(out, "reported receipts to own peer")
	}
	return nil
}

func cmdUpdate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("update", flag.ContinueOnError)
	keyPath := fs.String("key", "", "user key file (required)")
	handlePath := fs.String("handle", "", "handle file from 'share' (required)")
	secretHex := fs.String("secret", "", "hex coding secret (required)")
	oldPath := fs.String("old", "", "previous file version (required)")
	newPath := fs.String("new", "", "new file version (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *handlePath == "" || *secretHex == "" || *oldPath == "" || *newPath == "" {
		return errors.New("update: -key, -handle, -secret, -old and -new are required")
	}
	id, err := loadIdentity(*keyPath)
	if err != nil {
		return err
	}
	secret, err := hex.DecodeString(strings.TrimSpace(*secretHex))
	if err != nil {
		return fmt.Errorf("update: bad secret: %w", err)
	}
	handle, err := core.LoadHandleFile(*handlePath)
	if err != nil {
		return err
	}
	oldData, err := os.ReadFile(*oldPath)
	if err != nil {
		return err
	}
	newData, err := os.ReadFile(*newPath)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(id, nil)
	if err != nil {
		return err
	}
	res, err := sys.UpdateFile(context.Background(), handle, secret, oldData, newData)
	if err != nil {
		return err
	}
	// The manifest digests changed: rewrite the handle. Atomic, so a
	// crash here cannot leave a torn handle pointing at nothing.
	if err := core.SaveHandleFile(*handlePath, handle); err != nil {
		return err
	}
	fmt.Fprintf(out, "patched %d chunks (%d delta messages, %d bytes) and refreshed %s\n",
		len(res.ChangedChunks), res.MessagesPatched, res.BytesSent, *handlePath)
	return nil
}

func cmdList(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	keyPath := fs.String("key", "", "user key file (required)")
	peerAddr := fs.String("peer", "", "peer address (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *peerAddr == "" {
		return errors.New("list: -key and -peer are required")
	}
	id, err := loadIdentity(*keyPath)
	if err != nil {
		return err
	}
	c, err := client.New(id, nil)
	if err != nil {
		return err
	}
	files, err := c.ListFiles(context.Background(), *peerAddr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d stored generations on %s\n", len(files), *peerAddr)
	for _, f := range files {
		fmt.Fprintf(out, "  file %016x: %d messages\n", f.FileID, f.Messages)
	}
	return nil
}

// loadHandle reads a handle file.
func loadHandle(path string) (*core.Handle, error) {
	return core.LoadHandleFile(path)
}

func cmdAudit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	keyPath := fs.String("key", "", "user key file (required)")
	handlePath := fs.String("handle", "", "handle file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *handlePath == "" {
		return errors.New("audit: -key and -handle are required")
	}
	id, err := loadIdentity(*keyPath)
	if err != nil {
		return err
	}
	handle, err := loadHandle(*handlePath)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(id, nil)
	if err != nil {
		return err
	}
	report, err := sys.Audit(context.Background(), handle)
	if err != nil {
		return err
	}
	for _, addr := range handle.Peers {
		status := "OK"
		if n := report.MissingByPeer[addr]; n > 0 {
			status = fmt.Sprintf("%d incomplete batches", n)
		}
		fmt.Fprintf(out, "%s: %s\n", addr, status)
	}
	if report.Healthy() {
		fmt.Fprintln(out, "replication healthy")
	} else {
		fmt.Fprintln(out, "replication DEGRADED - run 'asymshare repair'")
	}
	return nil
}

// cmdContracts lists the caller's storage contracts on one peer: the
// book's aggregate capacity/used counters plus each obligation with
// its remaining term. Peers only reveal the requesting owner's own
// contracts, so the listing is exactly what this key placed there.
func cmdContracts(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("contracts", flag.ContinueOnError)
	keyPath := fs.String("key", "", "user key file (required)")
	peerAddr := fs.String("peer", "", "peer address (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *peerAddr == "" {
		return errors.New("contracts: -key and -peer are required")
	}
	id, err := loadIdentity(*keyPath)
	if err != nil {
		return err
	}
	c, err := client.New(id, nil)
	if err != nil {
		return err
	}
	info, err := c.ListContracts(context.Background(), *peerAddr)
	if err != nil {
		return err
	}
	capStr := "unlimited"
	if info.CapacityBytes > 0 {
		capStr = fmt.Sprintf("%d bytes", info.CapacityBytes)
	}
	fmt.Fprintf(out, "peer %s: %d bytes obligated, capacity %s\n", *peerAddr, info.UsedBytes, capStr)
	fmt.Fprintf(out, "%d contracts held by this key\n", len(info.Contracts))
	now := time.Now()
	for _, e := range info.Contracts {
		left := time.Unix(e.ExpiresUnix, 0).Sub(now).Round(time.Second)
		fmt.Fprintf(out, "  contract %016x: file %016x, %d messages, %d bytes, expires in %s\n",
			e.ContractID, e.FileID, e.Messages, e.Bytes, left)
	}
	return nil
}

func cmdRepair(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repair", flag.ContinueOnError)
	keyPath := fs.String("key", "", "user key file (required)")
	handlePath := fs.String("handle", "", "handle file (required)")
	secretHex := fs.String("secret", "", "hex coding secret (required)")
	filePath := fs.String("file", "", "original file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *handlePath == "" || *secretHex == "" || *filePath == "" {
		return errors.New("repair: -key, -handle, -secret and -file are required")
	}
	id, err := loadIdentity(*keyPath)
	if err != nil {
		return err
	}
	secret, err := hex.DecodeString(strings.TrimSpace(*secretHex))
	if err != nil {
		return fmt.Errorf("repair: bad secret: %w", err)
	}
	handle, err := loadHandle(*handlePath)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*filePath)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(id, nil)
	if err != nil {
		return err
	}
	n, err := sys.Repair(context.Background(), handle, secret, data)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "re-uploaded %d messages\n", n)
	return nil
}
