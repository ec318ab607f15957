package client_test

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
)

// fetchAllocSlack is what a warm 16-chunk FetchFile over four
// in-process peers may allocate beyond the file it returns: session
// and stream bookkeeping, the peers' side of the transfer, frame-pool
// misses, a fix-up scratch vector per engine that needs one — measured
// at 0.95–1.08 MB, with 512 KiB of headroom on top. It leaves no room
// for a decode arena beside the output (K × 128 KiB per engine in the
// window, 4 MiB in all, which put the total at 5.14 MB): every chunk is
// eliminated inside its slot of the file (DESIGN.md §15).
const fetchAllocSlack = 1_600_000

// TestFetchFileSteadyStateAllocs: once warm, a FetchFile allocates
// little besides its output. Measured as the runtime.MemStats
// TotalAlloc delta across one call — the peers are in-process, so
// their serving is counted too — median of five calls.
func TestFetchFileSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("shares a 16 MiB file with 4 peers")
	}
	if raceEnabled {
		t.Skip("the race detector's allocations would be counted")
	}
	data := randomBytes(14, 16<<20)
	c, err := client.New(identity(t, 12), nil)
	if err != nil {
		t.Fatal(err)
	}
	share, err := chunk.BuildShare("allocs.bin", data, chunk.DefaultPlan(), 9500, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 4; i++ {
		addrs = append(addrs, disseminateBatch(t, c, share, i, nil).Addr().String())
	}
	fetch := func() uint64 {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, _, err := c.FetchFile(ctx, addrs, &share.Manifest, testSecret())
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("FetchFile: err %v, identical %v", err, bytes.Equal(got, data))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	fetch() // warm-up: the frame pool's free lists fill
	runs := make([]uint64, 5)
	for i := range runs {
		runs[i] = fetch()
	}
	slices.Sort(runs)
	median := runs[len(runs)/2]
	t.Logf("FetchFile of %d bytes allocated %d bytes (median of %v): %+d beyond the file",
		len(data), median, runs, int64(median)-int64(len(data)))
	if limit := uint64(len(data)) + fetchAllocSlack; median > limit {
		t.Errorf("warm FetchFile allocated %d bytes, want at most the file (%d) + %d",
			median, len(data), fetchAllocSlack)
	}
}
