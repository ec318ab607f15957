package wire

import (
	"errors"
	"net"
	"testing"
	"time"
)

func TestContractProposeRoundTrip(t *testing.T) {
	p := ContractPropose{
		ContractID: 0x1122334455667788,
		FileID:     0xdeadbeef,
		Messages:   64,
		Bytes:      64 * 1040,
		TTLSeconds: 600,
	}
	var got ContractPropose
	if err := got.Unmarshal(p.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip: got %+v want %+v", got, p)
	}
}

func TestContractGrantRoundTrip(t *testing.T) {
	g := ContractGrant{
		ContractID:    7,
		ExpiresUnix:   1754600000,
		UsedBytes:     1 << 20,
		CapacityBytes: 8 << 20,
	}
	var got ContractGrant
	if err := got.Unmarshal(g.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Errorf("round trip: got %+v want %+v", got, g)
	}
}

func TestContractRenewReleaseRoundTrip(t *testing.T) {
	r := ContractRenew{ContractID: 9, TTLSeconds: 120}
	var gotR ContractRenew
	if err := gotR.Unmarshal(r.Marshal()); err != nil {
		t.Fatal(err)
	}
	if gotR != r {
		t.Errorf("renew round trip: got %+v want %+v", gotR, r)
	}
	rel := ContractRelease{ContractID: 9}
	var gotRel ContractRelease
	if err := gotRel.Unmarshal(rel.Marshal()); err != nil {
		t.Fatal(err)
	}
	if gotRel != rel {
		t.Errorf("release round trip: got %+v want %+v", gotRel, rel)
	}
}

func TestContractInfoRoundTrip(t *testing.T) {
	info := ContractInfo{
		CapacityBytes: 1 << 30,
		UsedBytes:     3 << 20,
		Contracts: []ContractEntry{
			{ContractID: 1, FileID: 42, Messages: 16, Bytes: 1 << 20, ExpiresUnix: 1754600000},
			{ContractID: 2, FileID: 43, Messages: 16, Bytes: 2 << 20, ExpiresUnix: 1754600600},
		},
	}
	blob, err := info.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got ContractInfo
	if err := got.Unmarshal(blob); err != nil {
		t.Fatal(err)
	}
	if got.CapacityBytes != info.CapacityBytes || got.UsedBytes != info.UsedBytes ||
		len(got.Contracts) != 2 || got.Contracts[1] != info.Contracts[1] {
		t.Errorf("round trip: got %+v", got)
	}
}

func TestContractPayloadsRejectMalformed(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"propose", (&ContractPropose{}).Unmarshal(make([]byte, 31))},
		{"grant", (&ContractGrant{}).Unmarshal(make([]byte, 33))},
		{"renew", (&ContractRenew{}).Unmarshal(make([]byte, 11))},
		{"release", (&ContractRelease{}).Unmarshal(make([]byte, 9))},
		{"info", (&ContractInfo{}).Unmarshal([]byte("{"))},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", c.name, c.err)
		}
	}
}

// TestContractOverCapacitySurfacesAsRemoteError pins the WriteError
// contract for the capacity-rejection path: a peer refusing a contract
// it cannot honor answers with CodeOverCapacity, and the proposing
// owner surfaces it as a typed *RemoteError it can route on (try the
// next candidate), never a hang or a bare EOF.
func TestContractOverCapacitySurfacesAsRemoteError(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		_ = NewFrameWriter(a).WriteError(CodeOverCapacity, "over advertised capacity")
		a.Close()
	}()
	_ = b.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := NewFrameReader(b).Expect(TypeContractGrant)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if remote.Code != CodeOverCapacity || remote.Reason != "over advertised capacity" {
		t.Errorf("remote = %+v", remote)
	}
}

func TestContractTypeStrings(t *testing.T) {
	names := map[Type]string{
		TypeContractPropose: "CONTRACT_PROPOSE",
		TypeContractGrant:   "CONTRACT_GRANT",
		TypeContractRenew:   "CONTRACT_RENEW",
		TypeContractRelease: "CONTRACT_RELEASE",
		TypeContractList:    "CONTRACT_LIST",
		TypeContractInfo:    "CONTRACT_INFO",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Errorf("type %d string = %q, want %q", ty, got, want)
		}
	}
}
