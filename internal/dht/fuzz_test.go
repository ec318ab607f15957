package dht

import (
	"encoding/json"
	"testing"

	"asymshare/internal/wire"
)

// FuzzDHTRequest feeds arbitrary frames to HandleRPC, the handler any
// dialer of a peer's port reaches with a DHT first frame: it must never
// panic, answer a request only with that request's response type (and
// a decodable body where one is due), answer nothing else, answer a
// STORE only when its value is its sender's address, hold only
// routable values, and never hold more than MaxKeys keys or
// DefaultMaxValuesPerKey values per key.
func FuzzDHTRequest(f *testing.F) {
	id := NodeIDFromAddr("sender:1").String()
	key := KeyFromFileID(1).String()
	header := `"fromId":"` + id + `","fromAddr":"sender:1"`
	for _, seed := range []struct {
		t    wire.Type
		body string
	}{
		{typePing, "{" + header + "}"},
		{typePing, ""},
		{typeFindNode, "{" + header + `,"target":"` + key + `"}`},
		{typeStore, "{" + header + `,"key":"` + key + `","value":"sender:1","ttlSec":60}`},
		{typeStore, `{"key":"` + key + `","value":"peer:2","ttlSec":-5}`},
		{typeFindValue, "{" + header + `,"key":"` + key + `"}`},
		{typeFindValue, `{"key":"zz"}`},
		{typePong, "{}"},
		{typeValues, `{"values":["x"]}`},
		{wire.TypeHello, "{}"},
		{typeStore, "{" + header + `,"key":"` + key + `","value":"other:2","ttlSec":60}`},
	} {
		f.Add(uint8(seed.t), []byte(seed.body))
	}
	n, err := New(Config{Advertise: "fuzz:1"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { n.Close() })
	response := map[wire.Type]wire.Type{
		typePing:      typePong,
		typeFindNode:  typeNodes,
		typeStore:     typeStored,
		typeFindValue: typeValues,
	}
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		req := wire.Type(typ)
		reply, body, ok := n.HandleRPC(req, payload)
		want, isReq := response[req]
		switch {
		case ok && !isReq:
			t.Fatalf("type %d answered with type %d", req, reply)
		case ok && reply != want:
			t.Fatalf("type %d answered with type %d, want %d", req, reply, want)
		case ok && reply == typeNodes:
			var resp nodesResp
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("FIND_NODE reply does not decode: %v", err)
			}
		case ok && reply == typeValues:
			var resp valuesResp
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("FIND_VALUE reply does not decode: %v", err)
			}
		case ok && reply == typeStored:
			var st storeReq
			if err := json.Unmarshal(payload, &st); err != nil || st.Value != st.FromAddr {
				t.Fatalf("STORE of value %q from %q answered (%v), want only the sender's own address", st.Value, st.FromAddr, err)
			}
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		if len(n.values) > MaxKeys {
			t.Fatalf("%d keys held, above MaxKeys %d", len(n.values), MaxKeys)
		}
		for k, vs := range n.values {
			if len(vs) > DefaultMaxValuesPerKey {
				t.Fatalf("key %s holds %d values, above %d", k, len(vs), DefaultMaxValuesPerKey)
			}
			for v := range vs {
				if !Routable(v) {
					t.Fatalf("key %s holds unroutable value %q", k, v)
				}
			}
		}
	})
}
