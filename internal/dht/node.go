package dht

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"asymshare/internal/metrics"
	"asymshare/internal/transport"
	"asymshare/internal/wire"
)

// RPC frame types, in a range disjoint from the peer and tracker
// protocols.
const (
	typePing wire.Type = 96 + iota
	typePong
	typeFindNode
	typeNodes
	typeStore
	typeStored
	typeFindValue
	typeValues
)

// Protocol constants.
const (
	// K is the replication factor: values live on the K nodes closest
	// to their key, and FIND_NODE returns up to K contacts.
	K = 8

	// Alpha is the lookup parallelism.
	Alpha = 3

	// DefaultTTL bounds value lifetime without refresh.
	DefaultTTL = 10 * time.Minute

	// DefaultRPCTimeout caps one RPC exchange when the caller's context
	// carries no tighter deadline. The caller's deadline always wins:
	// the effective per-RPC bound is min(ctx deadline, this).
	DefaultRPCTimeout = 3 * time.Second

	// DefaultMaxValuesPerKey bounds the replica value set one node keeps
	// per key. In large swarms every storage peer announces itself under
	// the same file key; without a cap the K closest nodes would
	// accumulate the whole swarm. Newer announcements evict the
	// soonest-expiring values.
	DefaultMaxValuesPerKey = 64

	// MaxKeys bounds the keys one node stores values under. Any dialer
	// may STORE, and a key nobody looks up again is never read back, so
	// without a bound the table grows with every fresh key sent to it. A
	// STORE for a new key at the cap first drops expired values, then,
	// if the table is still full, evicts the soonest-expiring key — the
	// policy DefaultMaxValuesPerKey applies within a key.
	MaxKeys = 4096
)

// ErrNotFound is returned by Lookup when no value is reachable.
var ErrNotFound = errors.New("dht: value not found")

// Exported metric names (see DESIGN.md §7).
const (
	MetricRPCs       = "dht_rpcs_total"
	MetricLookupHops = "dht_lookup_hops"
)

// Every request carries the sender's contact so receivers learn the
// network passively.
type rpcHeader struct {
	FromID    string `json:"fromId"`
	FromAddr  string `json:"fromAddr"`
	FromServe string `json:"fromServe,omitempty"`
}

type findNodeReq struct {
	rpcHeader
	Target string `json:"target"`
}

type nodesResp struct {
	Contacts []Contact `json:"contacts"`
}

type storeReq struct {
	rpcHeader
	Key    string `json:"key"`
	Value  string `json:"value"`
	TTLSec int    `json:"ttlSec,omitempty"`
}

type findValueReq struct {
	rpcHeader
	Key string `json:"key"`
}

type valuesResp struct {
	Values   []string  `json:"values,omitempty"`
	Contacts []Contact `json:"contacts,omitempty"`
}

type storedValue struct {
	expires time.Time
}

// Config configures a Node.
type Config struct {
	// Advertise is the RPC address other nodes dial, and the node-id
	// seed. Required.
	Advertise string

	// MaxTTL caps stored value lifetimes; zero means DefaultTTL.
	MaxTTL time.Duration

	// Transport carries the node's RPCs; nil means real TCP
	// (transport.Default). Tests attach an in-memory netsim host here so
	// the DHT runs identically on TCP and inside the simulator.
	Transport transport.Transport

	// ServeAddr, when set, rides along in this node's contact records:
	// the peer-protocol address of the co-located storage peer.
	ServeAddr string

	// TableCap bounds the routing table; zero means 128.
	TableCap int

	// RPCTimeout caps one RPC when the caller's context has no tighter
	// deadline; zero means DefaultRPCTimeout.
	RPCTimeout time.Duration

	// RefreshInterval, when positive, runs a background table refresh
	// (a lookup of the node's own id plus a random id) at this period,
	// keeping buckets populated as the swarm churns.
	RefreshInterval time.Duration

	// MaxValuesPerKey bounds the replica set kept per key; zero means
	// DefaultMaxValuesPerKey.
	MaxValuesPerKey int

	// Metrics, when set, receives dht_rpcs_total (by RPC type) and the
	// dht_lookup_hops histogram. Nil disables instrumentation.
	Metrics *metrics.Registry
}

// nodeMetrics holds the node's instrument handles; the zero value
// (every field nil) records nothing.
type nodeMetrics struct {
	rpcPing      *metrics.Counter
	rpcFindNode  *metrics.Counter
	rpcStore     *metrics.Counter
	rpcFindValue *metrics.Counter
	lookupHops   *metrics.Histogram
}

func newNodeMetrics(reg *metrics.Registry) nodeMetrics {
	if reg == nil {
		return nodeMetrics{}
	}
	const help = "DHT RPCs issued, by type."
	return nodeMetrics{
		rpcPing:      reg.Counter(MetricRPCs, help, metrics.L("type", "ping")),
		rpcFindNode:  reg.Counter(MetricRPCs, help, metrics.L("type", "find_node")),
		rpcStore:     reg.Counter(MetricRPCs, help, metrics.L("type", "store")),
		rpcFindValue: reg.Counter(MetricRPCs, help, metrics.L("type", "find_value")),
		lookupHops:   reg.Histogram(MetricLookupHops, "Iterative lookup round count.", metrics.UnitNone),
	}
}

func (m *nodeMetrics) rpcCounter(t wire.Type) *metrics.Counter {
	switch t {
	case typePing:
		return m.rpcPing
	case typeFindNode:
		return m.rpcFindNode
	case typeStore:
		return m.rpcStore
	case typeFindValue:
		return m.rpcFindValue
	}
	return nil
}

// Node is one DHT participant.
type Node struct {
	id         ID
	advertise  string
	serveAddr  string
	table      *table
	maxTTL     time.Duration
	maxValues  int
	rpcTimeout time.Duration
	refresh    time.Duration
	tr         transport.Transport
	m          nodeMetrics
	now        func() time.Time

	mu      sync.Mutex
	values  map[ID]map[string]storedValue // key -> value -> expiry
	ln      net.Listener
	serving bool
	closed  bool
	wg      sync.WaitGroup
	ctx     context.Context
	cancel  context.CancelFunc
}

// NewNode creates a node that will advertise the given address to
// other nodes (usually the listen address). maxTTL caps stored value
// lifetimes; zero means DefaultTTL.
func NewNode(advertise string, maxTTL time.Duration) (*Node, error) {
	return New(Config{Advertise: advertise, MaxTTL: maxTTL})
}

// New creates a node from a full configuration.
func New(cfg Config) (*Node, error) {
	if cfg.Advertise == "" {
		return nil, errors.New("dht: advertise address required")
	}
	if cfg.MaxTTL <= 0 {
		cfg.MaxTTL = DefaultTTL
	}
	if cfg.Transport == nil {
		cfg.Transport = transport.Default
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = DefaultRPCTimeout
	}
	if cfg.MaxValuesPerKey <= 0 {
		cfg.MaxValuesPerKey = DefaultMaxValuesPerKey
	}
	n := &Node{
		id:         NodeIDFromAddr(cfg.Advertise),
		advertise:  cfg.Advertise,
		serveAddr:  cfg.ServeAddr,
		table:      newTable(NodeIDFromAddr(cfg.Advertise), cfg.TableCap),
		maxTTL:     cfg.MaxTTL,
		maxValues:  cfg.MaxValuesPerKey,
		rpcTimeout: cfg.RPCTimeout,
		refresh:    cfg.RefreshInterval,
		tr:         cfg.Transport,
		m:          newNodeMetrics(cfg.Metrics),
		now:        time.Now,
	}
	n.values = make(map[ID]map[string]storedValue)
	n.ctx, n.cancel = context.WithCancel(context.Background())
	return n, nil
}

// StartListener starts serving on a pre-bound listener whose address
// matches the advertised one (used with ":0" binds: bind first, then
// New with the real address).
func (n *Node) StartListener(ln net.Listener) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("dht: node closed")
	}
	n.ln = ln
	n.serving = true
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop()
	if n.refresh > 0 {
		n.wg.Add(1)
		go n.refreshLoop()
	}
	return nil
}

// Serving reports whether the node accepts RPCs (a client-only node —
// one that never started a listener — must not count itself as a
// value replica, since nobody could read from it).
func (n *Node) Serving() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.serving
}

// Start listens on the advertised address via the node's transport and
// serves.
func (n *Node) Start() error {
	ln, err := n.tr.Listen(n.advertise)
	if err != nil {
		return fmt.Errorf("dht: listen: %w", err)
	}
	return n.StartListener(ln)
}

// ID returns the node identifier.
func (n *Node) ID() ID { return n.id }

// Addr returns the advertised address.
func (n *Node) Addr() string { return n.advertise }

// TableSize reports how many contacts the node knows.
func (n *Node) TableSize() int { return n.table.size() }

// RandomContacts returns up to count uniformly random routing-table
// contacts — the repair daemon's replacement-candidate source. Because
// node ids are address hashes, the table's closest-to-self
// neighbourhood is itself a near-uniform sample of the swarm.
func (n *Node) RandomContacts(count int) []Contact {
	return wireContacts(n.table.random(count))
}

// Close stops the node.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	ln := n.ln
	n.mu.Unlock()
	n.cancel()
	if ln != nil {
		ln.Close()
	}
	n.wg.Wait()
	return nil
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer conn.Close()
			_ = conn.SetDeadline(n.now().Add(n.rpcTimeout))
			n.handle(conn)
		}()
	}
}

// refreshLoop periodically re-runs the self lookup (repopulating the
// neighbourhood) and a random-target lookup (discovering far buckets),
// so the table tracks the live swarm instead of its join-time snapshot.
func (n *Node) refreshLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.refresh)
	defer ticker.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-ticker.C:
			n.Refresh(n.ctx)
		}
	}
}

// Refresh runs one table refresh round immediately.
func (n *Node) Refresh(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, 4*n.rpcTimeout)
	defer cancel()
	_, _, _, _ = n.iterativeFind(ctx, n.id, false)
	random := NodeIDFromAddr(fmt.Sprintf("refresh:%s:%d", n.advertise, n.now().UnixNano()))
	_, _, _, _ = n.iterativeFind(ctx, random, false)
}

func (n *Node) header() rpcHeader {
	return rpcHeader{
		FromID:    n.id.String(),
		FromAddr:  n.advertise,
		FromServe: n.serveAddr,
	}
}

func (n *Node) observeSender(h rpcHeader) {
	c, err := Contact{ID: h.FromID, Addr: h.FromAddr, Serve: h.FromServe}.parse()
	if err == nil {
		n.table.observe(c)
	}
}

func (n *Node) handle(conn net.Conn) {
	fr, fw := wire.NewFrameReader(conn), wire.NewFrameWriter(conn)
	t, b, err := fr.Next()
	if err != nil {
		return
	}
	defer b.Release()
	payload := b.Bytes()
	switch t {
	case typePing:
		var req findNodeReq // header only
		if json.Unmarshal(payload, &req) == nil {
			n.observeSender(req.rpcHeader)
		}
		_ = fw.WriteFrame(typePong, nil)
	case typeFindNode:
		var req findNodeReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return
		}
		n.observeSender(req.rpcHeader)
		target, err := ParseID(req.Target)
		if err != nil {
			return
		}
		reply(fw, typeNodes, nodesResp{Contacts: wireContacts(n.table.closest(target, K))})
	case typeStore:
		var req storeReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return
		}
		n.observeSender(req.rpcHeader)
		key, err := ParseID(req.Key)
		if err != nil || req.Value == "" {
			return
		}
		n.storeLocal(key, req.Value, req.TTLSec)
		_ = fw.WriteFrame(typeStored, nil)
	case typeFindValue:
		var req findValueReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return
		}
		n.observeSender(req.rpcHeader)
		key, err := ParseID(req.Key)
		if err != nil {
			return
		}
		resp := valuesResp{Values: n.loadLocal(key)}
		if len(resp.Values) == 0 {
			resp.Contacts = wireContacts(n.table.closest(key, K))
		}
		reply(fw, typeValues, resp)
	}
}

func reply(fw *wire.FrameWriter, t wire.Type, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		return
	}
	_ = fw.WriteFrame(t, blob)
}

func wireContacts(cs []parsedContact) []Contact {
	out := make([]Contact, len(cs))
	for i, c := range cs {
		out[i] = c.wire()
	}
	return out
}

func (n *Node) storeLocal(key ID, value string, ttlSec int) {
	ttl := n.maxTTL
	if ttlSec > 0 {
		if req := time.Duration(ttlSec) * time.Second; req < ttl {
			ttl = req
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	m, ok := n.values[key]
	if !ok {
		if len(n.values) >= MaxKeys {
			n.evictKeyLocked()
		}
		m = make(map[string]storedValue)
		n.values[key] = m
	}
	m[value] = storedValue{expires: n.now().Add(ttl)}
	// Keep the replica set bounded: evict the soonest-expiring values
	// (the stalest announcements) so fresh announcers stay resolvable.
	for len(m) > n.maxValues {
		var victim string
		var victimExp time.Time
		first := true
		for v, sv := range m {
			if v == value {
				continue // never evict the value just announced
			}
			if first || sv.expires.Before(victimExp) {
				victim, victimExp = v, sv.expires
				first = false
			}
		}
		if first {
			break
		}
		delete(m, victim)
	}
}

// evictKeyLocked makes room for one key: it drops every expired value
// (and the keys left empty), and if the table is still full it evicts
// the key whose last value expires soonest.
func (n *Node) evictKeyLocked() {
	now := n.now()
	var victim ID
	var victimExp time.Time
	first := true
	for key, m := range n.values {
		var last time.Time
		for v, sv := range m {
			if sv.expires.Before(now) {
				delete(m, v)
			} else if sv.expires.After(last) {
				last = sv.expires
			}
		}
		if len(m) == 0 {
			delete(n.values, key)
			continue
		}
		if first || last.Before(victimExp) {
			victim, victimExp, first = key, last, false
		}
	}
	if len(n.values) >= MaxKeys {
		delete(n.values, victim)
	}
}

func (n *Node) loadLocal(key ID) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.values[key]
	now := n.now()
	out := make([]string, 0, len(m))
	for v, sv := range m {
		if sv.expires.Before(now) {
			delete(m, v)
			continue
		}
		out = append(out, v)
	}
	if len(m) == 0 {
		delete(n.values, key)
	}
	return out
}
