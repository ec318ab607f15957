package rlnc

import (
	"testing"

	"asymshare/internal/gf"
)

// Golden encoder output. The digests below were computed at the commit
// before the encoder moved onto the gf region kernels (PR 14), with the
// per-message Field.AddScaledSlice walk. Manifests published by any
// earlier build carry exactly these MD5s for these (secret, file-id,
// message-id, data), so a mismatch here means old shares stop
// verifying. Do not regenerate them from the current encoder.

const (
	goldenSecret = "golden-secret-0123456789abcdef!!"
	goldenFileID = uint64(0x1122334455667788)
)

var goldenIDs = []uint64{0, 1, 1 << 32, 1<<32 + 5, 1<<64 - 1}

// goldenData is an xorshift32 stream from a fixed seed.
func goldenData(n int) []byte {
	d := make([]byte, n)
	x := uint32(2463534242)
	for i := range d {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		d[i] = byte(x >> 11)
	}
	return d
}

var goldenCases = []struct {
	bits          uint
	k, m, dataLen int
	peer          int      // batch pinned below
	batchIDs      []uint64 // BatchForPeer(peer, k) ids
	digests       []string // goldenIDs first, then the batch in order
}{
	{gf.Bits32, 8, 32768, 1<<20 - 37, 2, // the default plan's generation, padded
		[]uint64{0x200000000, 0x200000001, 0x200000002, 0x200000003, 0x200000004, 0x200000005, 0x200000006, 0x200000007},
		[]string{
			"479f4d395534059bebbea6020cc06e73",
			"6dc052b2ccca5d5b7cfd0bca28033ad8",
			"4b5d344c17e52b116173278698815ec7",
			"926a597cf75101dfb40cb52dc7a6b9ca",
			"295391000327c63c81192fbaebf8270c",
			"91e45d71d1e3b7ec60c0bf49fe379451",
			"3c1d373b8f366f1b5f6790a5f7d5f49f",
			"eaf719167dbf540f2ecf7b103820f2fa",
			"b91f987a82e90008e942ab89bcc950f8",
			"163e7cd2b40ec5aa2620a16470903f16",
			"1ec47f117b93d82154211cd5b0740924",
			"1ed9b9260e6ee15da884921f904a1f16",
			"3fa3334b2065ac2d579f2cd4410c4f3c",
		}},
	{gf.Bits32, 3, 17, 200, 2, // 68-byte payloads: vector step plus a one-symbol tail
		[]uint64{0x200000000, 0x200000001, 0x200000002},
		[]string{
			"51c2d9fc73194beae8d011063e13bfd5",
			"a2d2e79de03cf0bc2e62884ebf97c7c2",
			"d57ab7bd3b059520b65ffe3ae9311d5f",
			"531555fcdb6386bccf158897a6e26d7c",
			"cb9c23bb5c6b8540bda11cc38cb5e5dc",
			"01d762b4a910ec528b7acd92306802ed",
			"30004caf7a53303fd9aa8e4636d807f9",
			"3de8e5456bb25ca8e23e99c6295b0c91",
		}},
	{gf.Bits16, 5, 33, 325, 2,
		[]uint64{0x200000000, 0x200000001, 0x200000002, 0x200000003, 0x200000004},
		[]string{
			"85f978016a321312268d26590181772b",
			"e919b63bc4f89449a0e00a7c10888c95",
			"82888731151c4495d3b13b317ddd6364",
			"0fe59d643bee83b5faeba113cba9b5a9",
			"d908f75500c9af0c0a61370a865fac5f",
			"5756e84fd8212b9bd14eab0f85b236b3",
			"c38c94ba7c0fa91fc2c30e0b08f13aa3",
			"4b47b661b84cc022e183aee29fb11e5f",
			"586ac31680680d8b3e721904bfa0fef8",
			"938a72dfd974f1d8587cc191381eb49a",
		}},
	{gf.Bits8, 16, 100, 1600, 2,
		[]uint64{0x200000000, 0x200000001, 0x200000002, 0x200000003, 0x200000004, 0x200000005, 0x200000006, 0x200000007,
			0x200000008, 0x200000009, 0x20000000a, 0x20000000b, 0x20000000c, 0x20000000d, 0x20000000e, 0x20000000f},
		[]string{
			"d8ef15876544a287dbd1948f0d8be212",
			"80e9eb8247069f6758e15af14c6af008",
			"23e5c9b88dd9364992bfc6a2758f63b4",
			"969b24fba44ee90d65a7cff618049bd5",
			"f194a2c4d7349961aec8f5b7448655b8",
			"09f96a9e15f9b622aba15c9bf6bc56d9",
			"741c64a4c7f73241c39468b27335f4b9",
			"f73b77e873a374fe92b289a307ecccf4",
			"4b04f9008ffe46367536819fa63e6f29",
			"dc3b124b68dff57327f59fbc176a754f",
			"36d5a29d9125e12c278df20a08e40b86",
			"bad24e18f5f15bb6586c6155861bb802",
			"67344fb163c3d3cc012000524f759371",
			"7b45d5f3cf39216f5996cd8212108835",
			"c1b53cb48cfa3f21723184ed46040f08",
			"4489443eabb862076db201cb2a76b34a",
			"0be88bf66b5ca775cc9c7305c1236b21",
			"839380f23ff14a734a06009fa893d1fb",
			"2886b8173abe80ce273576d550ab99fd",
			"a347676870c8a61228a1952be3d0c7f1",
			"6eec7a725ae6b5d33a8620a91dcb9605",
		}},
	{gf.Bits4, 4, 64, 120, 1, // peer 1's scan skips the dependent id 0x100000003
		[]uint64{0x100000000, 0x100000001, 0x100000002, 0x100000004},
		[]string{
			"2ae469782f3d8420eafd7cdc35b4d83c",
			"1c64029a81b080c4516ab217f0a113a6",
			"d440b99d212c600a012d58eb6903d336",
			"81cbcbd52c1fe57b0980921c90919665",
			"0df97c7cd50e7c9976486ad3c67526ba",
			"d440b99d212c600a012d58eb6903d336",
			"1744c8c524f01e705489fd77fba95257",
			"a0eadfdf1b66f0389bc5b884faa20bc8",
			"679c3e6efb3d074ee21820c2d7999053",
		}},
}

func TestEncoderGoldenDigests(t *testing.T) {
	for _, c := range goldenCases {
		params, err := NewParams(gf.MustNew(c.bits), c.k, c.m, c.dataLen)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := NewEncoder(params, goldenFileID, []byte(goldenSecret), goldenData(c.dataLen))
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, id uint64, got Digest, want string) {
			t.Helper()
			if got.String() != want {
				t.Errorf("GF(2^%d) k=%d m=%d: %s id %#x digest %s, published %s",
					c.bits, c.k, c.m, what, id, got, want)
			}
		}
		into := &Message{FileID: goldenFileID, Payload: make([]byte, params.ChunkBytes())}
		for i, id := range goldenIDs {
			check("Message", id, enc.Message(id).Digest(), c.digests[i])
			// Reused, dirty buffer: MessageInto must overwrite, not accumulate.
			into.MessageID = id
			enc.MessageInto(id, into.Payload)
			check("MessageInto", id, into.Digest(), c.digests[i])
		}
		ids, err := enc.BatchIDs(c.peer, c.k)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := enc.BatchForPeer(c.peer, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(c.batchIDs) || len(batch) != len(c.batchIDs) {
			t.Fatalf("GF(2^%d): batch of %d ids / %d messages, want %d", c.bits, len(ids), len(batch), len(c.batchIDs))
		}
		for j, want := range c.batchIDs {
			if ids[j] != want || batch[j].MessageID != want {
				t.Errorf("GF(2^%d) peer %d: batch id %d is %#x (BatchIDs) / %#x (BatchForPeer), published %#x",
					c.bits, c.peer, j, ids[j], batch[j].MessageID, want)
			}
			check("BatchForPeer", want, batch[j].Digest(), c.digests[len(goldenIDs)+j])
		}
	}
}

// TestDeltaEncoderMatchesVersionDifference pins the update path to the
// same bytes: the delta for an id is the XOR of the two versions'
// messages, and DeltaInto equals Delta.
func TestDeltaEncoderMatchesVersionDifference(t *testing.T) {
	params, err := NewParams(gf.MustNew(gf.Bits32), 3, 17, 200)
	if err != nil {
		t.Fatal(err)
	}
	oldData, newData := goldenData(200), goldenData(200)
	copy(newData[70:], "a changed stretch in the second chunk")
	oldEnc, _ := NewEncoder(params, goldenFileID, []byte(goldenSecret), oldData)
	newEnc, _ := NewEncoder(params, goldenFileID, []byte(goldenSecret), newData)
	delta, err := NewDeltaEncoder(params, goldenFileID, []byte(goldenSecret), oldData, newData)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, params.ChunkBytes())
	for _, id := range goldenIDs {
		want := oldEnc.Message(id)
		gf.AddSlice(want.Payload, newEnc.Message(id).Payload)
		if got := delta.Delta(id); !got.Equal(want) {
			t.Fatalf("id %#x: Delta is not new XOR old", id)
		}
		delta.DeltaInto(id, buf)
		if string(buf) != string(want.Payload) {
			t.Fatalf("id %#x: DeltaInto differs from Delta", id)
		}
	}
}

// TestMessageIntoSteadyStateAllocs is the encoder's allocation gate:
// once the scratch exists, minting into a caller-owned payload
// allocates nothing, at the default plan's geometry and a table-field
// one.
func TestMessageIntoSteadyStateAllocs(t *testing.T) {
	for _, c := range goldenCases[:4] {
		params, err := NewParams(gf.MustNew(c.bits), c.k, c.m, c.dataLen)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := NewEncoder(params, goldenFileID, []byte(goldenSecret), goldenData(c.dataLen))
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, params.ChunkBytes())
		enc.MessageInto(0, payload) // warm-up: creates the scratch
		id := uint64(1)
		if n := testing.AllocsPerRun(20, func() {
			enc.MessageInto(id, payload)
			id++
		}); n != 0 {
			t.Errorf("GF(2^%d) k=%d: MessageInto allocates %.1f times per message, want 0", c.bits, c.k, n)
		}
	}
}
