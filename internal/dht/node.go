package dht

import (
	"context"
	"crypto/rand"
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
// network passively. A node no peer serves sends no address. Nodes
// built before the DHT shared the peer's port also send "fromServe",
// their peer address; it is ignored, since the RPC address is the one
// that routes.
type rpcHeader struct {
	FromID   string `json:"fromId"`
	FromAddr string `json:"fromAddr,omitempty"`
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
	// Advertise is the address the node answers RPCs on — the listen
	// address of the peer that hosts it (see peer.Config.DHT) — and the
	// node-id seed. Empty makes a client-only node: a random id, no
	// address in its requests, never a replica.
	Advertise string

	// MaxTTL caps stored value lifetimes; zero means DefaultTTL.
	MaxTTL time.Duration

	// Transport carries the node's RPCs; nil means real TCP
	// (transport.Default). Tests attach an in-memory netsim host here so
	// the DHT runs identically on TCP and inside the simulator.
	Transport transport.Transport

	// TableCap bounds the routing table; zero means 128.
	TableCap int

	// RPCTimeout caps one RPC when the caller's context has no tighter
	// deadline; zero means DefaultRPCTimeout.
	RPCTimeout time.Duration

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

// Node is one DHT participant. It holds no listener: the peer that
// hosts it hands each request to HandleRPC.
type Node struct {
	id         ID
	advertise  string
	table      *table
	maxTTL     time.Duration
	rpcTimeout time.Duration
	tr         transport.Transport
	m          nodeMetrics
	now        func() time.Time

	mu     sync.Mutex
	values map[ID]map[string]storedValue // key -> value -> expiry
	closed bool
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// New creates a node. A node with an advertised address refreshes its
// table every DefaultTTL until Close.
func New(cfg Config) (*Node, error) {
	var id ID
	if cfg.Advertise != "" {
		if _, _, err := net.SplitHostPort(cfg.Advertise); err != nil {
			return nil, fmt.Errorf("dht: advertise address: %w", err)
		}
		id = NodeIDFromAddr(cfg.Advertise)
	} else if _, err := rand.Read(id[:]); err != nil {
		return nil, fmt.Errorf("dht: node id: %w", err)
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
	n := &Node{
		id:         id,
		advertise:  cfg.Advertise,
		table:      newTable(id, cfg.TableCap),
		maxTTL:     cfg.MaxTTL,
		rpcTimeout: cfg.RPCTimeout,
		tr:         cfg.Transport,
		m:          newNodeMetrics(cfg.Metrics),
		now:        time.Now,
	}
	n.values = make(map[ID]map[string]storedValue)
	n.ctx, n.cancel = context.WithCancel(context.Background())
	if n.advertise != "" {
		n.wg.Add(1)
		go n.refreshLoop()
	}
	return n, nil
}

// ID returns the node identifier.
func (n *Node) ID() ID { return n.id }

// Addr returns the advertised address.
func (n *Node) Addr() string { return n.advertise }

// TableSize reports how many contacts the node knows.
func (n *Node) TableSize() int { return n.table.size() }

// Close stops the node: its refresh loop ends and HandleRPC answers
// nothing more.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.cancel()
	n.wg.Wait()
	return nil
}

// refreshLoop re-runs the self lookup (repopulating the neighbourhood)
// and a random-target lookup (discovering far buckets) once per
// DefaultTTL, so the table tracks the live swarm instead of its
// join-time snapshot.
func (n *Node) refreshLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(DefaultTTL)
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
	random := NodeIDFromAddr(fmt.Sprintf("refresh:%s:%d", n.id, n.now().UnixNano()))
	_, _, _, _ = n.iterativeFind(ctx, random, false)
}

func (n *Node) header() rpcHeader {
	return rpcHeader{FromID: n.id.String(), FromAddr: n.advertise}
}

// observeSender records the sender of a request; parse drops one with
// no routable address.
func (n *Node) observeSender(h rpcHeader) {
	if c, err := (Contact{ID: h.FromID, Addr: h.FromAddr}).parse(); err == nil {
		n.table.observe(c)
	}
}

// IsRPC reports whether t is a DHT frame type (96–103): the range a
// hosting peer routes to HandleRPC, disjoint from the peer and tracker
// protocols, so a connection's first frame tells the two apart.
func IsRPC(t wire.Type) bool { return t >= typePing && t <= typeValues }

// HandleRPC answers one request frame: PING, FIND_NODE, STORE or
// FIND_VALUE. It returns the reply frame, or ok false when there is
// none — a malformed request, a frame that is not a request, or a
// closed node. Any dialer may call it: the DHT is unauthenticated, and
// STORE is bounded by MaxKeys and DefaultMaxValuesPerKey.
func (n *Node) HandleRPC(t wire.Type, payload []byte) (reply wire.Type, body []byte, ok bool) {
	if n.ctx.Err() != nil {
		return 0, nil, false
	}
	switch t {
	case typePing:
		var req findNodeReq // header only
		if json.Unmarshal(payload, &req) == nil {
			n.observeSender(req.rpcHeader)
		}
		return typePong, nil, true
	case typeFindNode:
		var req findNodeReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return 0, nil, false
		}
		n.observeSender(req.rpcHeader)
		target, err := ParseID(req.Target)
		if err != nil {
			return 0, nil, false
		}
		return marshalReply(typeNodes, nodesResp{Contacts: wireContacts(n.table.closest(target, K))})
	case typeStore:
		var req storeReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return 0, nil, false
		}
		n.observeSender(req.rpcHeader)
		key, err := ParseID(req.Key)
		if err != nil || req.Value == "" {
			return 0, nil, false
		}
		n.storeLocal(key, req.Value, req.TTLSec)
		return typeStored, nil, true
	case typeFindValue:
		var req findValueReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return 0, nil, false
		}
		n.observeSender(req.rpcHeader)
		key, err := ParseID(req.Key)
		if err != nil {
			return 0, nil, false
		}
		resp := valuesResp{Values: n.loadLocal(key)}
		if len(resp.Values) == 0 {
			resp.Contacts = wireContacts(n.table.closest(key, K))
		}
		return marshalReply(typeValues, resp)
	}
	return 0, nil, false
}

func marshalReply(t wire.Type, v any) (wire.Type, []byte, bool) {
	blob, err := json.Marshal(v)
	if err != nil {
		return 0, nil, false
	}
	return t, blob, true
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
	for len(m) > DefaultMaxValuesPerKey {
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
