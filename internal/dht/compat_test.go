package dht

import (
	"encoding/json"
	"net"
	"testing"
	"time"

	"asymshare/internal/wire"
)

// TestOlderNodeHeaderInterop sends a PING and a FIND_NODE with three
// headers: the way a node built before the DHT shared the peer's port
// does (it adds "fromServe", its peer address, and the older
// "fromGossip"), the current format, and one whose address has an
// unspecified host. All are answered; the first two senders are
// recorded at their fromAddr, so mixed-version swarms keep routing, and
// the third is not, since no other host could dial it.
func TestOlderNodeHeaderInterop(t *testing.T) {
	n := startNode(t)
	for _, hc := range []struct {
		name, addr, extra string
		record            bool
	}{
		{"old", "old:7272", `,"fromServe":"old:7070","fromGossip":"old:7373"`, true},
		{"new", "new:7070", "", true},
		{"wildcard", "[::]:7070", "", false},
	} {
		sender := NodeIDFromAddr(hc.addr)
		header := `"fromId":"` + sender.String() + `","fromAddr":"` + hc.addr + `"` + hc.extra
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
				t.Fatalf("%s header, %s: %v", hc.name, tc.name, err)
			}
			if tc.wantNodes {
				var resp nodesResp
				if err := json.Unmarshal(b.Bytes(), &resp); err != nil {
					t.Fatalf("%s header, %s reply: %v", hc.name, tc.name, err)
				}
			}
			b.Release()
			conn.Close()
		}
		recorded := ""
		for _, c := range n.table.closest(sender, K) {
			if c.id == sender {
				recorded = c.addr
			}
		}
		switch {
		case hc.record && recorded != hc.addr:
			t.Errorf("%s header: sender recorded at %q, want %q", hc.name, recorded, hc.addr)
		case !hc.record && recorded != "":
			t.Errorf("%s header: sender recorded at %q, want not recorded", hc.name, recorded)
		}
	}
}
