package dht

import (
	"math/bits"
	"math/rand"
	"sort"
	"sync"
)

// table is a bounded routing table that keeps contacts spread across
// XOR-distance bands: when full, it evicts from the most-populated
// band. Evicting the globally farthest contact instead would collapse
// the table into a self-neighbourhood — greedy routing then stalls
// mid-ring and capped-table lookups dead-end. Per-band eviction
// preserves Kademlia's invariant (contacts at every distance scale,
// crowded far bands trimmed first) with a single capacity knob
// instead of per-prefix k-buckets.
type table struct {
	self ID
	cap  int

	mu       sync.Mutex
	contacts map[ID]parsedContact
}

func newTable(self ID, capacity int) *table {
	if capacity <= 0 {
		capacity = 128
	}
	return &table{self: self, cap: capacity, contacts: make(map[ID]parsedContact)}
}

// bucketIndex is the position of the highest set bit of the XOR
// distance between self and id: 0 for the farthest half of the ID
// space, growing as contacts get closer. Uniformly distributed swarms
// put ~half their nodes in band 0, a quarter in band 1, and so on —
// so the crowded bands are always the far ones.
func bucketIndex(self, id ID) int {
	d := xorDistance(self, id)
	for i, b := range d {
		if b != 0 {
			return i*8 + bits.LeadingZeros8(b)
		}
	}
	return IDLen*8 - 1
}

// randomInBand returns a random id whose bucketIndex from self is band:
// self's bits above band, band's bit flipped, random bits below.
func randomInBand(self ID, band int) ID {
	var id ID
	for i := range id {
		id[i] = byte(rand.Intn(256))
	}
	i := band / 8
	copy(id[:i], self[:i])
	flip := byte(0x80) >> (band % 8)
	above := ^(flip<<1 - 1) // bits of byte i above band's bit
	id[i] = self[i]&above | ^self[i]&flip | id[i]&^(above|flip)
	return id
}

// observe records a live contact (any node we heard from or about).
func (t *table) observe(c parsedContact) {
	if c.id == t.self {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.contacts[c.id]; ok {
		t.contacts[c.id] = c // refresh address
		return
	}
	t.contacts[c.id] = c
	if len(t.contacts) <= t.cap {
		return
	}
	// Evict from the most-populated distance band (ties to the
	// farther band), dropping its farthest-from-self member.
	counts := make(map[int]int)
	for id := range t.contacts {
		counts[bucketIndex(t.self, id)]++
	}
	crowded, best := -1, 0
	for b, n := range counts {
		if n > best || (n == best && (crowded == -1 || b < crowded)) {
			crowded, best = b, n
		}
	}
	var worst ID
	first := true
	for id := range t.contacts {
		if bucketIndex(t.self, id) != crowded {
			continue
		}
		if first || lessDistance(t.self, worst, id) {
			worst = id
			first = false
		}
	}
	delete(t.contacts, worst)
}

// remove drops a dead contact.
func (t *table) remove(id ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.contacts, id)
}

// closest returns up to k known contacts nearest to target.
func (t *table) closest(target ID, k int) []parsedContact {
	t.mu.Lock()
	out := make([]parsedContact, 0, len(t.contacts))
	for _, c := range t.contacts {
		out = append(out, c)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].id == out[j].id {
			return false
		}
		return lessDistance(target, out[i].id, out[j].id)
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// size returns the contact count.
func (t *table) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.contacts)
}
