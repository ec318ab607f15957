package dht

// Client-side RPCs and the iterative lookup procedure.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"asymshare/internal/wire"
)

// rpc performs one request/response exchange with a remote node over
// the node's transport. The caller's context governs the exchange
// end-to-end: its deadline bounds dial, write and read (capped at the
// node's RPCTimeout when the context carries no tighter deadline), and
// its cancellation severs an in-flight exchange immediately — a
// blackholed or partitioned peer can wedge one RPC for at most the
// remaining context budget, never the fixed timeout. A reply of the
// wanted type is decoded into resp (nil: an empty acknowledgement); an
// ERROR reply is a *wire.RemoteError.
func (n *Node) rpc(ctx context.Context, addr string, reqType wire.Type, req any,
	respType wire.Type, resp any) error {
	n.m.rpcCounter(reqType).Inc()
	rpcCtx, cancel := context.WithTimeout(ctx, n.rpcTimeout) // deadline = min(ctx, now+RPCTimeout)
	defer cancel()
	conn, err := n.tr.DialContext(rpcCtx, addr)
	if err != nil {
		return fmt.Errorf("dht: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if deadline, ok := rpcCtx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	// Deadlines cover the timeout path; cancellation needs a watcher to
	// unblock reads when the caller gives up early.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-rpcCtx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()
	blob, err := json.Marshal(req)
	if err != nil {
		return err
	}
	fr, fw := wire.NewFrameReader(conn), wire.NewFrameWriter(conn)
	if err := fw.WriteFrame(reqType, blob); err != nil {
		return err
	}
	b, err := fr.Expect(respType)
	if err != nil {
		if ctxErr := rpcCtx.Err(); ctxErr != nil {
			err = ctxErr
		}
		return fmt.Errorf("dht: rpc to %s: %w", addr, err)
	}
	defer b.Release()
	if resp == nil {
		return nil
	}
	return json.Unmarshal(b.Bytes(), resp)
}

// Ping checks liveness and introduces this node to addr.
func (n *Node) Ping(ctx context.Context, addr string) error {
	return n.rpc(ctx, addr, typePing, findNodeReq{rpcHeader: n.header()}, typePong, nil)
}

// findNodeRPC queries one node for contacts close to target.
func (n *Node) findNodeRPC(ctx context.Context, c parsedContact, target ID) ([]parsedContact, error) {
	var resp nodesResp
	err := n.rpc(ctx, c.addr, typeFindNode,
		findNodeReq{rpcHeader: n.header(), Target: target.String()}, typeNodes, &resp)
	if err != nil {
		n.table.remove(c.id)
		return nil, err
	}
	return n.absorb(resp.Contacts), nil
}

// findValueRPC queries one node for a key's values (or closer nodes).
func (n *Node) findValueRPC(ctx context.Context, c parsedContact, key ID) ([]string, []parsedContact, error) {
	var resp valuesResp
	err := n.rpc(ctx, c.addr, typeFindValue,
		findValueReq{rpcHeader: n.header(), Key: key.String()}, typeValues, &resp)
	if err != nil {
		n.table.remove(c.id)
		return nil, nil, err
	}
	return resp.Values, n.absorb(resp.Contacts), nil
}

// storeRPC stores a value on one node.
func (n *Node) storeRPC(ctx context.Context, c parsedContact, key ID, value string, ttl time.Duration) error {
	err := n.rpc(ctx, c.addr, typeStore, storeReq{
		rpcHeader: n.header(),
		Key:       key.String(),
		Value:     value,
		TTLSec:    int(ttl / time.Second),
	}, typeStored, nil)
	if err != nil {
		n.table.remove(c.id)
	}
	return err
}

// absorb parses remote contacts into the routing table.
func (n *Node) absorb(cs []Contact) []parsedContact {
	out := make([]parsedContact, 0, len(cs))
	for _, c := range cs {
		p, err := c.parse()
		if err != nil || p.id == n.id {
			continue
		}
		n.table.observe(p)
		out = append(out, p)
	}
	return out
}

// Join bootstraps the node into the network through one known address.
func (n *Node) Join(ctx context.Context, bootstrapAddr string) error {
	boot := parsedContact{id: NodeIDFromAddr(bootstrapAddr), addr: bootstrapAddr}
	n.table.observe(boot)
	if err := n.Ping(ctx, bootstrapAddr); err != nil {
		n.table.remove(boot.id)
		return fmt.Errorf("dht: join: %w", err)
	}
	// Locate ourselves: populates the table with our neighbourhood.
	_, _, _, err := n.iterativeFind(ctx, n.id, false)
	return err
}

// lookupState tracks an iterative lookup's shortlist.
type lookupState struct {
	target  ID
	queried map[ID]bool
	short   []parsedContact
}

func (s *lookupState) add(cs []parsedContact) {
	seen := make(map[ID]bool, len(s.short))
	for _, c := range s.short {
		seen[c.id] = true
	}
	for _, c := range cs {
		if !seen[c.id] {
			s.short = append(s.short, c)
			seen[c.id] = true
		}
	}
	sort.Slice(s.short, func(i, j int) bool {
		if s.short[i].id == s.short[j].id {
			return false
		}
		return lessDistance(s.target, s.short[i].id, s.short[j].id)
	})
	if len(s.short) > 2*K {
		s.short = s.short[:2*K]
	}
}

func (s *lookupState) nextBatch() []parsedContact {
	out := make([]parsedContact, 0, Alpha)
	for _, c := range s.short {
		if len(out) == Alpha {
			break
		}
		if !s.queried[c.id] {
			out = append(out, c)
			s.queried[c.id] = true
		}
	}
	return out
}

// iterativeFind runs the Kademlia lookup. With wantValue it returns
// the first values found; otherwise it converges on the K closest
// contacts to target, returned as the shortlist. The shortlist — not
// the routing table, which a TableCap may have thinned — is the
// authoritative closest-set for replica placement. The returned hop
// count is the number of Alpha-parallel query rounds issued.
func (n *Node) iterativeFind(ctx context.Context, target ID, wantValue bool) ([]string, []parsedContact, int, error) {
	state := &lookupState{target: target, queried: make(map[ID]bool)}
	state.add(n.table.closest(target, K))
	hops := 0

	closest := func() []parsedContact {
		if len(state.short) > K {
			return state.short[:K]
		}
		return state.short
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, closest(), hops, err
		}
		batch := state.nextBatch()
		if len(batch) == 0 {
			if wantValue {
				return nil, closest(), hops, ErrNotFound
			}
			return nil, closest(), hops, nil
		}
		hops++
		type result struct {
			values   []string
			contacts []parsedContact
		}
		results := make(chan result, len(batch))
		for _, c := range batch {
			go func(c parsedContact) {
				var res result
				if wantValue {
					res.values, res.contacts, _ = n.findValueRPC(ctx, c, target)
				} else {
					res.contacts, _ = n.findNodeRPC(ctx, c, target)
				}
				results <- res
			}(c)
		}
		var values []string
		for range batch {
			res := <-results
			values = append(values, res.values...)
			state.add(res.contacts)
		}
		if wantValue && len(values) > 0 {
			return dedupe(values), closest(), hops, nil
		}
	}
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// Announce replicates key -> value on the K nodes closest to key
// (including this node if it is among them). A zero ttl uses the
// node's maximum.
func (n *Node) Announce(ctx context.Context, key ID, value string, ttl time.Duration) error {
	if ttl <= 0 {
		ttl = n.maxTTL
	}
	_, targets, _, err := n.iterativeFind(ctx, key, false)
	if err != nil {
		return err
	}
	// Count ourselves as a candidate replica only if we can serve.
	all := append([]parsedContact{}, targets...)
	if n.Serving() {
		all = append(all, parsedContact{id: n.id, addr: n.advertise})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].id == all[j].id {
			return false
		}
		return lessDistance(key, all[i].id, all[j].id)
	})
	if len(all) > K {
		all = all[:K]
	}
	stored := 0
	for _, c := range all {
		if c.id == n.id {
			n.storeLocal(key, value, int(ttl/time.Second))
			stored++
			continue
		}
		if err := n.storeRPC(ctx, c, key, value, ttl); err == nil {
			stored++
		}
	}
	if stored == 0 {
		return fmt.Errorf("dht: announce stored on 0 replicas")
	}
	return nil
}

// LookupResult carries a lookup's values and its cost.
type LookupResult struct {
	Values []string

	// Hops is the number of Alpha-parallel query rounds the iterative
	// lookup issued; 0 means the value was resolved locally.
	Hops int
}

// Lookup resolves a key to its values via iterative search, checking
// the local store first.
func (n *Node) Lookup(ctx context.Context, key ID) ([]string, error) {
	res, err := n.LookupStats(ctx, key)
	return res.Values, err
}

// LookupStats is Lookup with cost accounting, feeding the
// dht_lookup_hops histogram.
func (n *Node) LookupStats(ctx context.Context, key ID) (LookupResult, error) {
	if local := n.loadLocal(key); len(local) > 0 {
		n.m.lookupHops.Observe(0)
		return LookupResult{Values: dedupe(local)}, nil
	}
	values, _, hops, err := n.iterativeFind(ctx, key, true)
	n.m.lookupHops.Observe(uint64(hops))
	if err != nil {
		return LookupResult{Hops: hops}, err
	}
	return LookupResult{Values: values, Hops: hops}, nil
}
