package dht

import (
	"encoding/json"
	"net"
	"testing"
	"time"

	"asymshare/internal/wire"
)

// TestOlderNodeHeaderInterop sends a PING and a FIND_NODE the way a node
// built before contact records lost their gossip address does: the
// header still carries "fromGossip". Both must be answered and the
// sender observed, so mixed-version swarms keep routing.
func TestOlderNodeHeaderInterop(t *testing.T) {
	n := startNode(t)
	sender := NodeIDFromAddr("old:7272")
	header := `"fromId":"` + sender.String() + `","fromAddr":"old:7272","fromServe":"old:7070","fromGossip":"old:7373"`
	for _, tc := range []struct {
		name      string
		req       wire.Type
		body      string
		resp      wire.Type
		wantNodes bool
	}{
		{"ping", typePing, "{" + header + "}", typePong, false},
		{"find_node", typeFindNode, "{" + header + `,"target":"` + n.ID().String() + `"}`, typeNodes, true},
	} {
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := wire.NewFrameWriter(conn).WriteFrame(tc.req, []byte(tc.body)); err != nil {
			t.Fatal(err)
		}
		b, err := wire.NewFrameReader(conn).Expect(tc.resp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.wantNodes {
			var resp nodesResp
			if err := json.Unmarshal(b.Bytes(), &resp); err != nil {
				t.Fatalf("%s reply: %v", tc.name, err)
			}
		}
		b.Release()
		conn.Close()
	}
	found := false
	for _, c := range n.table.closest(sender, K) {
		if c.id == sender {
			found = c.addr == "old:7272" && c.serve == "old:7070"
		}
	}
	if !found {
		t.Fatal("older node's header was not observed as a contact")
	}
}
