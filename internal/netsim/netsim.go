// Package netsim is an in-memory network fabric implementing the
// transport.Transport seam with a programmable per-link fault model:
// one-way latency plus jitter, asymmetric token-bucket bandwidth
// caps, probabilistic dial drops, scheduled mid-stream cuts, named
// partitions and blackholes. All randomness flows from a single seed
// through per-link, per-dial RNGs, so a failure sequence replays
// identically from its seed regardless of goroutine scheduling — the
// EventLog captures every fault-model decision for comparison.
//
// The fabric exists to drive the real peer/client/DHT protocol
// stack through adversity deterministically under go test -race; see
// internal/netsim/harness for the end-to-end chaos suite.
package netsim

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"asymshare/internal/transport"
)

// Fabric is one simulated network. Hosts are named; addresses are
// "host:port" strings, so listener addresses round-trip through the
// DHT and manifests exactly like real TCP addresses.
type Fabric struct {
	seed   int64
	events *EventLog

	mu            sync.Mutex
	listeners     map[string]*listener
	nextPort      map[string]int
	policies      map[dirKey]LinkPolicy
	defaultPolicy LinkPolicy
	partition     map[string]string
	blackhole     map[string]bool
	dialSeq       map[dirKey]int64
	pairs         map[*pair]struct{}
}

// NewFabric creates a fabric whose every fault-model decision derives
// from seed.
func NewFabric(seed int64) *Fabric {
	return &Fabric{
		seed:      seed,
		events:    newEventLog(),
		listeners: make(map[string]*listener),
		nextPort:  make(map[string]int),
		policies:  make(map[dirKey]LinkPolicy),
		partition: make(map[string]string),
		blackhole: make(map[string]bool),
		dialSeq:   make(map[dirKey]int64),
		pairs:     make(map[*pair]struct{}),
	}
}

// Seed returns the fabric's seed, for printing on test failure so the
// run can be replayed.
func (f *Fabric) Seed() int64 { return f.seed }

// Events returns the fabric's fault-model event log.
func (f *Fabric) Events() *EventLog { return f.events }

// SetLink sets the policy for src→dst traffic. It is directional:
// call it once per direction to shape both ways.
func (f *Fabric) SetLink(src, dst string, p LinkPolicy) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.policies[dirKey{src, dst}] = p
}

// SetDefaultPolicy sets the policy used for links with no explicit
// SetLink entry.
func (f *Fabric) SetDefaultPolicy(p LinkPolicy) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.defaultPolicy = p
}

// Partition moves hosts into the named partition. Hosts in different
// partitions (the unnamed default universe counts as one) cannot dial
// each other, and existing connections crossing the new boundary are
// severed with ErrSevered.
func (f *Fabric) Partition(name string, hosts ...string) {
	f.mu.Lock()
	for _, h := range hosts {
		f.partition[h] = name
	}
	victims := f.crossingPairsLocked()
	f.mu.Unlock()
	f.events.add("fabric", "partition %q: %v", name, hosts)
	for _, p := range victims {
		f.events.add(p.key.String(), "conn severed: partition")
		p.sever(ErrSevered)
	}
}

// Heal returns the given hosts (all hosts when called with none) to
// the default universe, re-enabling connectivity.
func (f *Fabric) Heal(hosts ...string) {
	f.mu.Lock()
	if len(hosts) == 0 {
		f.partition = make(map[string]string)
	} else {
		for _, h := range hosts {
			delete(f.partition, h)
		}
	}
	f.mu.Unlock()
	f.events.add("fabric", "heal: %v", hosts)
}

// Blackhole makes the hosts silently lose all traffic: dials to or
// from them block until the dial context expires, established
// connections stall (writes are swallowed, reads starve). The TCP
// analogue of a dead middlebox, as opposed to Partition's hard reset.
func (f *Fabric) Blackhole(hosts ...string) {
	f.mu.Lock()
	for _, h := range hosts {
		f.blackhole[h] = true
	}
	f.mu.Unlock()
	f.events.add("fabric", "blackhole: %v", hosts)
}

// Restore lifts Blackhole from the hosts.
func (f *Fabric) Restore(hosts ...string) {
	f.mu.Lock()
	for _, h := range hosts {
		delete(f.blackhole, h)
	}
	f.mu.Unlock()
	f.events.add("fabric", "restore: %v", hosts)
}

// Host returns a named attachment point implementing
// transport.Transport: Listen binds ports on the host, DialContext
// originates connections subject to the host's link policies.
func (f *Fabric) Host(name string) *Host {
	return &Host{f: f, name: name}
}

// policyLocked returns the directional policy, falling back to the
// fabric default. Callers hold f.mu.
func (f *Fabric) policyLocked(k dirKey) LinkPolicy {
	if p, ok := f.policies[k]; ok {
		return p
	}
	return f.defaultPolicy
}

// crossingLocked reports whether a and b are in different partitions.
func (f *Fabric) crossingLocked(a, b string) bool {
	return f.partition[a] != f.partition[b]
}

// linkStatus snapshots the live fault state of one direction.
func (f *Fabric) linkStatus(k dirKey) (pol LinkPolicy, crossing, blackholed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.policyLocked(k), f.crossingLocked(k.src, k.dst),
		f.blackhole[k.src] || f.blackhole[k.dst]
}

func (f *Fabric) crossingPairsLocked() []*pair {
	var out []*pair
	for p := range f.pairs {
		if f.crossingLocked(p.key.src, p.key.dst) {
			out = append(out, p)
		}
	}
	return out
}

func (f *Fabric) removePair(p *pair) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.pairs, p)
}

// allocPortLocked assigns the next ephemeral port for a host.
func (f *Fabric) allocPortLocked(host string) int {
	f.nextPort[host]++
	return 40000 + f.nextPort[host]
}

// connect builds a connection pair for a dial on link key with the
// given ordinal. Per-direction RNGs derive from (seed, link, ordinal)
// so jitter and cut decisions replay from the seed.
func (f *Fabric) connect(key dirKey, ordinal int64, remoteAddr string) (cli, srv *Conn) {
	f.mu.Lock()
	localAddr := fmt.Sprintf("%s:%d", key.src, f.allocPortLocked(key.src))
	f.mu.Unlock()

	eCli, eSrv := newEndpoint(), newEndpoint()
	rev := dirKey{src: key.dst, dst: key.src}
	cliCtx, cliCancel := context.WithCancel(context.Background())
	srvCtx, srvCancel := context.WithCancel(context.Background())
	cli = &Conn{
		fabric: f, key: key, ordinal: ordinal,
		local: simAddr{localAddr}, remote: simAddr{remoteAddr},
		in: eCli, out: eSrv,
		ctx: cliCtx, cancel: cliCancel,
		rng: newLinkRand(f.seed, key, ordinal, "data"),
	}
	srv = &Conn{
		fabric: f, key: rev, ordinal: ordinal,
		local: simAddr{remoteAddr}, remote: simAddr{localAddr},
		in: eSrv, out: eCli,
		ctx: srvCtx, cancel: srvCancel,
		rng: newLinkRand(f.seed, rev, ordinal, "data"),
	}
	p := &pair{key: key, a: cli, b: srv}
	cli.pair, srv.pair = p, p
	f.mu.Lock()
	f.pairs[p] = struct{}{}
	f.mu.Unlock()
	return cli, srv
}

// Host is one attachment point on the fabric.
type Host struct {
	f    *Fabric
	name string
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Listeners returns the "host:port" addresses bound on this host,
// sorted — what a scan of the host would find answering.
func (h *Host) Listeners() []string {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	var out []string
	for addr := range h.f.listeners {
		if host, _, err := net.SplitHostPort(addr); err == nil && host == h.name {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// Listen binds addr on this host. addr may be ":0" (ephemeral port on
// this host), ":port", or "host:port" where host matches the Host.
func (h *Host) Listen(addr string) (net.Listener, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: listen %s: %w", addr, err)
	}
	if host == "" {
		host = h.name
	}
	if host != h.name {
		return nil, fmt.Errorf("netsim: listen %s: host %q is not %q", addr, host, h.name)
	}
	h.f.mu.Lock()
	if port == "0" {
		port = fmt.Sprintf("%d", h.f.allocPortLocked(host))
	}
	hostport := net.JoinHostPort(host, port)
	if _, taken := h.f.listeners[hostport]; taken {
		h.f.mu.Unlock()
		return nil, fmt.Errorf("netsim: listen %s: address in use", hostport)
	}
	ln := &listener{
		f:        h.f,
		hostport: hostport,
		backlog:  make(chan *Conn, 64),
		done:     make(chan struct{}),
	}
	h.f.listeners[hostport] = ln
	h.f.mu.Unlock()
	h.f.events.add(host, "listen %s", hostport)
	return ln, nil
}

// DialContext opens a connection to addr ("host:port"), applying the
// src→dst link policy: partition refusal, blackhole stall,
// probabilistic drop, then propagation delay.
func (h *Host) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	f := h.f
	dstHost, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: dial %s: %w", addr, err)
	}
	key := dirKey{src: h.name, dst: dstHost}
	link := key.String()

	f.mu.Lock()
	f.dialSeq[key]++
	seq := f.dialSeq[key]
	pol := f.policyLocked(key)
	crossing := f.crossingLocked(h.name, dstHost)
	blackholed := f.blackhole[h.name] || f.blackhole[dstHost]
	f.mu.Unlock()

	if crossing {
		f.events.add(link, "dial#%d refused: partition", seq)
		return nil, fmt.Errorf("netsim: dial %s: network partitioned", addr)
	}
	if blackholed {
		f.events.add(link, "dial#%d blackholed", seq)
		<-ctx.Done()
		return nil, fmt.Errorf("netsim: dial %s: %w", addr, ctx.Err())
	}
	dialRng := newLinkRand(f.seed, key, seq, "dial")
	if pol.DropProb > 0 && dialRng.Float64() < pol.DropProb {
		f.events.add(link, "dial#%d dropped", seq)
		if err := sleepCtx(ctx, pol.Latency); err != nil {
			return nil, fmt.Errorf("netsim: dial %s: %w", addr, err)
		}
		return nil, fmt.Errorf("netsim: dial %s: %w", addr, ErrDropped)
	}
	if d := pol.delay(dialRng); d > 0 {
		if err := sleepCtx(ctx, d); err != nil {
			return nil, fmt.Errorf("netsim: dial %s: %w", addr, err)
		}
	}

	f.mu.Lock()
	ln := f.listeners[addr]
	f.mu.Unlock()
	if ln == nil {
		f.events.add(link, "dial#%d refused: no listener", seq)
		return nil, fmt.Errorf("netsim: dial %s: connection refused", addr)
	}
	cli, srv := f.connect(key, seq, addr)
	select {
	case ln.backlog <- srv:
		f.events.add(link, "dial#%d ok", seq)
		return cli, nil
	case <-ln.done:
		cli.Close()
		f.events.add(link, "dial#%d refused: listener closed", seq)
		return nil, fmt.Errorf("netsim: dial %s: connection refused", addr)
	case <-ctx.Done():
		cli.Close()
		return nil, fmt.Errorf("netsim: dial %s: %w", addr, ctx.Err())
	}
}

// listener accepts fabric connections for one host:port.
type listener struct {
	f        *Fabric
	hostport string
	backlog  chan *Conn
	done     chan struct{}
	once     sync.Once
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.f.mu.Lock()
		delete(l.f.listeners, l.hostport)
		l.f.mu.Unlock()
	})
	return nil
}

func (l *listener) Addr() net.Addr { return simAddr{l.hostport} }

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

var _ transport.Transport = (*Host)(nil)
var _ net.Listener = (*listener)(nil)
