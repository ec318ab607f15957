package fairshare

// The ledger's serialized form. A peer's receipt ledger is the only
// state the allocation rule depends on; losing it on restart would zero
// every contributor's standing — Theorem 1's incentive and Corollary
// 1's fairness both assume R_i survives. Ledgers serialize to a small
// JSON document, written and recovered by the Checkpointer.

import (
	"encoding/json"
	"fmt"
)

// Ledger document versions. Version 2 is what is written: entries plus
// the bound and the aggregate tail. Version 0 (the field omitted) is
// the exact pairwise form peers wrote before the ledger was bounded; it
// stays readable forever, as a version-2 document with no tail and no
// stored bound.
const ledgerDocVersion = 2

// ledgerDoc is the serialized form. Gen is the checkpoint generation
// (see Checkpointer).
type ledgerDoc struct {
	V        int            `json:"v,omitempty"`
	Initial  float64        `json:"initial"`
	Received map[ID]float64 `json:"received"`
	Gen      uint64         `json:"gen,omitempty"`
	Bound    int            `json:"bound,omitempty"`
	TailSum  float64        `json:"tail_sum,omitempty"`
	TailN    uint64         `json:"tail_n,omitempty"`
}

// marshal renders the ledger as a version-2 document stamped with the
// given checkpoint generation.
func (l *Ledger) marshal(gen uint64) ([]byte, error) {
	doc := ledgerDoc{
		V:        ledgerDocVersion,
		Initial:  l.initial,
		Received: l.Snapshot(),
		Gen:      gen,
		Bound:    l.Bound(),
	}
	doc.TailSum, doc.TailN = l.Tail()
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("fairshare: save ledger: %w", err)
	}
	return append(data, '\n'), nil
}

// ledgerFromDoc validates a document and rebuilds the ledger it
// describes, at the stored bound (DefaultLedgerBound for a version-0
// document, which has none).
func ledgerFromDoc(doc ledgerDoc) (*Ledger, error) {
	if doc.V != 0 && doc.V != ledgerDocVersion {
		return nil, fmt.Errorf("fairshare: load ledger: unknown version %d", doc.V)
	}
	if doc.TailSum < 0 {
		return nil, fmt.Errorf("fairshare: load ledger: negative tail sum")
	}
	l := NewBoundedLedger(doc.Initial, doc.Bound)
	l.tailSum, l.tailN = doc.TailSum, doc.TailN
	for id, v := range doc.Received {
		if v < 0 {
			return nil, fmt.Errorf("fairshare: load ledger: negative entry for %q", id)
		}
		l.upsertLocked(l.shardFor(id), id, v)
	}
	return l, nil
}

// parseDoc unmarshals a serialized ledger document.
func parseDoc(data []byte) (ledgerDoc, error) {
	var doc ledgerDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return ledgerDoc{}, fmt.Errorf("fairshare: load ledger: %w", err)
	}
	return doc, nil
}
