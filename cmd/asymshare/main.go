// Command asymshare is the end-user tool: generate an identity, run a
// storage peer, share a file to a set of peers, and fetch it back from
// anywhere — the full workflow of the paper.
//
// Usage:
//
//	asymshare keygen  -out user.key
//	asymshare serve   -key peer.key -listen :7070 -store ./data -upload 262144
//	asymshare serve   -key peer.key -store ./data -policy eq2 -estimate ewma   # divide a measured capacity (-estimate off|ewma)
//	asymshare share   -key user.key -file video.mpg -peers a:7070,b:7070 -out video.handle
//	asymshare fetch   -key user.key -handle video.handle -secret <hex> -out video.mpg
//
// Discovery is the DHT every serve answers on its one -listen port, so
// any serve is a bootstrap; each listens on a host:port other peers can
// dial, and announces that address for a chunk when its first PUT
// lands and every half TTL (10 min), so a record lives as long as its
// holder. fetch -dht resolves the holders instead of reading the
// handle's peer list:
//
//	asymshare serve   -key peer.key -listen a:7070 -store ./data                     # bootstrap
//	asymshare serve   -key peer2.key -listen b:7070 -store ./data2 -dht a:7070        # joins swarm
//	asymshare share   -key user.key -file video.mpg -peers a:7070,b:7070,c:7070 -replicas 3
//	asymshare fetch   -key user.key -handle video.mpg.handle -secret <hex> -dht b:7070 -out video.mpg
//
// Other commands:
//
//	asymshare update  -key user.key -handle video.handle -secret <hex> -old v1.mpg -new v2.mpg
//	asymshare spotcheck -key user.key -handle video.handle -secret <hex> [-sample 8] [-feedback host:7070]
//	asymshare repair  -key user.key -handle video.handle -secret <hex> -file video.mpg
//	asymshare auditdemo [-honest 2] [-size 4096] [-sample 8]
//	asymshare stats   -addr 127.0.0.1:9090 [-filter peer_]
//
// spotcheck is the one retention audit: keyed challenges the peers must
// answer with MACs over the stored bytes. repair runs it over every
// message of every batch and re-sends each batch that fails; a holder
// that does not answer is skipped and named, and repair exits non-zero.
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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/dht"
	"asymshare/internal/estimate"
	"asymshare/internal/fairshare"
	"asymshare/internal/fsx"
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
	case "spotcheck":
		return cmdSpotCheck(args[1:], out)
	case "auditdemo":
		return cmdAuditDemo(args[1:], out)
	case "repair":
		return cmdRepair(args[1:], out)
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

// parsePolicy maps the -policy flag to an allocator.
func parsePolicy(name string) (fairshare.Allocator, error) {
	switch name {
	case "eq2":
		return fairshare.PairwiseProportional{}, nil
	case "equal":
		return fairshare.EqualSplit{}, nil
	case "bci":
		return fairshare.BiasedContribution{}, nil
	default:
		return nil, fmt.Errorf("unknown -policy %q (want eq2, equal, or bci)", name)
	}
}

// parseEstimator maps the -estimate flag to a capacity estimator (nil
// for off: the node divides the configured -upload constant).
func parseEstimator(name string) (*estimate.History, error) {
	switch name {
	case "off", "":
		return nil, nil
	case "ewma":
		return estimate.NewHistory(), nil
	default:
		return nil, fmt.Errorf("unknown -estimate %q (want off or ewma)", name)
	}
}

func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	keyPath := fs.String("key", "", "peer key file (required)")
	listen := fs.String("listen", "127.0.0.1:7070", "listen address")
	storeDir := fs.String("store", "", "message store directory (required)")
	upload := fs.Float64("upload", 0, "upload capacity in bytes/s (0 = unshaped; with -estimate, a ceiling on the estimate)")
	maxStreams := fs.Int("max-streams", 0, "admission cap on concurrently served download streams; excess requests are shed BUSY with a retry-after hint (0 = unlimited)")
	policyName := fs.String("policy", "eq2", "allocation policy: eq2 (pairwise proportional), bci (biased contribution index), equal")
	estName := fs.String("estimate", "off", "online upload-capacity estimation: off, or ewma (EWMA of the p90 flush-train rate; with -upload, capped at it)")
	ownerHex := fs.String("owner", "", "owner public key (hex) allowed to send feedback")
	ledgerPath := fs.String("ledger", "", "receipt-ledger checkpoint file persisted across restarts (and crashes)")
	ckptEvery := fs.Duration("checkpoint", fairshare.DefaultCheckpointInterval, "ledger checkpoint interval")
	metricsAddr := fs.String("metrics", "", "serve Prometheus metrics (/metrics), expvar (/debug/vars) and runtime profiles (/debug/pprof/) on this address, e.g. 127.0.0.1:9090; whoever reaches it can profile the process, so keep it on loopback or behind a firewall")
	dhtBootstrap := fs.String("dht", "", "join the DHT through this peer; every serve answers DHT RPCs on its -listen port")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *storeDir == "" {
		return errors.New("serve: -key and -store are required")
	}
	if !dht.Routable(*listen) { // checked before the store is opened
		return fmt.Errorf("serve: -listen needs a host other peers can dial, not %q", *listen)
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
	policy, err := parsePolicy(*policyName)
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
	cfg.DHT = &dht.Config{Metrics: cfg.Metrics}
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
	if err := node.Start(*listen); err != nil {
		return err
	}
	fmt.Fprintf(out, "peer %s serving on %s (store %s)\n", id.Fingerprint(), node.Addr(), *storeDir)
	fmt.Fprintf(out, "allocation: policy %s, estimator %s\n", *policyName, *estName)
	if msrv != nil {
		fmt.Fprintf(out, "metrics on http://%s/metrics (expvar at /debug/vars)\n", msrv.Addr())
	}

	// The DHT node this peer answers for on its own port makes it
	// discoverable (and a routing/replica host for others).
	if *dhtBootstrap != "" {
		jctx, jcancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := node.Join(jctx, *dhtBootstrap)
		jcancel()
		if err != nil {
			node.Close()
			return fmt.Errorf("serve: dht join: %w", err)
		}
		fmt.Fprintf(out, "dht joined via %s (%d contacts)\n", *dhtBootstrap, node.DHT().TableSize())
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
	replicas := fs.Int("replicas", 0, "ring placement: store each chunk on N peers (0 = every peer)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *filePath == "" || *peers == "" {
		return errors.New("share: -key, -file and -peers are required")
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
	return nil
}

// joinDHT joins the DHT as a client-only node through a bootstrap;
// the caller closes it, which leaves the DHT.
func joinDHT(bootstrap string) (*dht.Node, error) {
	node, err := dht.New(dht.Config{})
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

func cmdFetch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fetch", flag.ContinueOnError)
	keyPath := fs.String("key", "", "user key file (required)")
	handlePath := fs.String("handle", "", "handle file from 'share' (required)")
	secretHex := fs.String("secret", "", "hex coding secret from 'share' (required)")
	outPath := fs.String("out", "", "output path (required)")
	feedback := fs.String("feedback", "", "own peer address to report receipts to")
	dhtAddr := fs.String("dht", "", "resolve peers through the DHT via this bootstrap node instead of the handle's list")
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
	sys, err := core.NewSystem(id, nil)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	var (
		data  []byte
		stats client.FetchStats
	)
	if *dhtAddr != "" {
		node, joinErr := joinDHT(*dhtAddr)
		if joinErr != nil {
			return joinErr
		}
		defer node.Close()
		data, stats, err = sys.FetchFileVia(ctx, node, &handle.Manifest, secret)
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

// loadHandle reads a handle file.
func loadHandle(path string) (*core.Handle, error) {
	return core.LoadHandleFile(path)
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
	// An unreachable holder fails the command, but only after every
	// batch that could be mended was re-sent and counted.
	n, err := sys.Repair(context.Background(), handle, secret, data)
	fmt.Fprintf(out, "re-uploaded %d messages\n", n)
	return err
}
