// Package dht implements a Kademlia-style distributed hash table for
// decentralized content location — the role Chord/Pastry/Tapestry play
// in the paper's related work (Sec. II): mapping a file-id to the
// addresses of the peers storing its messages, with no central server.
//
// Design notes (documented simplifications versus full Kademlia):
//
//   - node and key identifiers are 256-bit SHA-256 values compared by
//     XOR distance;
//   - the routing table is a capacity-bounded contact set rather than
//     per-prefix k-buckets: closest-to-self contacts are retained, which
//     preserves lookup convergence for the network sizes a bandwidth
//     co-op realistically has (tens to hundreds of peers);
//   - values are soft-state (TTL) strings, replicated on the K nodes
//     closest to the key; a holder re-announces to keep them alive.
//
// RPCs run over short-lived connections using the asymshare wire
// framing with JSON payloads: PING, FIND_NODE, STORE and FIND_VALUE. A
// node has no listener of its own: the storage peer that hosts it
// answers on its one port, routing a connection whose first frame is a
// DHT type (IsRPC) to Node.HandleRPC, so a contact's address is the
// peer's address.
package dht

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
)

// IDLen is the identifier length in bytes.
const IDLen = 32

// ID is a 256-bit DHT identifier.
type ID [IDLen]byte

// NodeIDFromAddr derives a node's identifier from its advertised
// address.
func NodeIDFromAddr(addr string) ID {
	return sha256.Sum256([]byte("node:" + addr))
}

// KeyFromFileID derives the DHT key for a generation's file-id.
func KeyFromFileID(fileID uint64) ID {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], fileID)
	h := sha256.New()
	h.Write([]byte("file:"))
	h.Write(b[:])
	var id ID
	h.Sum(id[:0])
	return id
}

// String returns the hex form.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// ParseID parses a hex identifier.
func ParseID(s string) (ID, error) {
	var id ID
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != IDLen {
		return id, fmt.Errorf("dht: bad id %q", s)
	}
	copy(id[:], raw)
	return id, nil
}

// xorDistance returns the XOR metric between two identifiers.
func xorDistance(a, b ID) ID {
	var d ID
	for i := range d {
		d[i] = a[i] ^ b[i]
	}
	return d
}

// lessDistance reports whether a is strictly closer to target than b.
func lessDistance(target, a, b ID) bool {
	da := xorDistance(target, a)
	db := xorDistance(target, b)
	return bytes.Compare(da[:], db[:]) < 0
}

// Contact is a known node: its id and the address it answers RPCs on,
// the listen address of the peer that hosts it.
type Contact struct {
	ID   string `json:"id"` // hex
	Addr string `json:"addr"`
}

// parsedContact pairs the decoded identifier with the address.
type parsedContact struct {
	id    ID
	addr  string
	fails int // in the routing table: RPCs to it that failed in a row
}

// parse decodes a contact, refusing one whose address another host
// could not dial: empty, not host:port, or an unspecified host
// (0.0.0.0, ::) — what a client-only node or a wildcard listener would
// advertise.
func (c Contact) parse() (parsedContact, error) {
	id, err := ParseID(c.ID)
	if err != nil {
		return parsedContact{}, err
	}
	if !Routable(c.Addr) {
		return parsedContact{}, fmt.Errorf("dht: contact address %q is not routable", c.Addr)
	}
	return parsedContact{id: id, addr: c.Addr}, nil
}

// Routable reports whether addr is host:port with a host other hosts
// can dial: not empty and not the unspecified address.
func Routable(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil || host == "" {
		return false
	}
	ip := net.ParseIP(host)
	return ip == nil || !ip.IsUnspecified()
}

func (p parsedContact) wire() Contact {
	return Contact{ID: p.id.String(), Addr: p.addr}
}
