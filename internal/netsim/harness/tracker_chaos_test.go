package harness

// Tracker resilience under chaos: heavy connection-drop rates on the
// client side, and a -race stress of announce/lookup/expiry with 32
// concurrent peers over the fabric.

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"asymshare/internal/netsim"
	"asymshare/internal/tracker"
)

func startTracker(t *testing.T, f *netsim.Fabric) (*tracker.Server, string) {
	t.Helper()
	srv := tracker.NewServer(0)
	srv.SetTransport(f.Host(HostTracker))
	if err := srv.Start(":0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

// TestTrackerSurvivesHeavyConnectionDrops drives announces and lookups
// through a link refusing half of all dials. Every operation succeeds
// within a bounded retry budget and the registry ends up complete.
func TestTrackerSurvivesHeavyConnectionDrops(t *testing.T) {
	seed := Seed(t, 11)
	f := netsim.NewFabric(seed)
	f.SetLink(HostUser, HostTracker, netsim.LinkPolicy{DropProb: 0.5})
	srv, addr := startTracker(t, f)
	user := f.Host(HostUser)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	retry := func(what string, op func() error) {
		t.Helper()
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			if err = op(); err == nil {
				return
			}
		}
		t.Fatalf("%s still failing after 20 attempts: %v", what, err)
	}

	const files, holders = 4, 10
	for fid := uint64(0); fid < files; fid++ {
		for h := 0; h < holders; h++ {
			peerAddr := "peer" + strconv.Itoa(h) + ":40001"
			retry("announce", func() error {
				return tracker.Announce(ctx, user, addr, fid, peerAddr, time.Minute)
			})
		}
	}
	for fid := uint64(0); fid < files; fid++ {
		var got []string
		retry("lookup", func() error {
			var err error
			got, err = tracker.Lookup(ctx, user, addr, fid)
			return err
		})
		if len(got) != holders {
			t.Fatalf("file %d: lookup returned %d holders, want %d", fid, len(got), holders)
		}
	}
	if n := srv.FileCount(); n != files {
		t.Fatalf("tracker tracks %d files, want %d", n, files)
	}
	dropped := f.Events().Count("dropped")
	if dropped == 0 {
		t.Fatal("drop policy never fired; the test exercised nothing")
	}
	t.Logf("survived %d dropped dials", dropped)
}

// TestTrackerStressAnnounceLookupExpiry hammers one tracker with 32
// peers announcing and looking up concurrently over the fabric (run
// under -race via `make chaos`), then verifies soft-state expiry
// empties the registry.
func TestTrackerStressAnnounceLookupExpiry(t *testing.T) {
	seed := Seed(t, 13)
	f := netsim.NewFabric(seed)
	srv, addr := startTracker(t, f)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const peers, rounds, files = 32, 8, 4
	var wg sync.WaitGroup
	errc := make(chan error, peers)
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			host := f.Host("peer" + strconv.Itoa(i))
			peerAddr := host.Name() + ":40001"
			fid := uint64(i % files)
			for r := 0; r < rounds; r++ {
				if err := tracker.Announce(ctx, host, addr, fid, peerAddr, time.Second); err != nil {
					errc <- err
					return
				}
				if _, err := tracker.Lookup(ctx, host, addr, fid); err != nil {
					errc <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for fid := uint64(0); fid < files; fid++ {
		got, err := tracker.Lookup(ctx, f.Host(HostUser), addr, fid)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != peers/files {
			t.Fatalf("file %d: %d holders, want %d", fid, len(got), peers/files)
		}
	}

	// Announcements carried a 1s TTL; past it the soft state ages out.
	time.Sleep(1100 * time.Millisecond)
	for fid := uint64(0); fid < files; fid++ {
		got, err := tracker.Lookup(ctx, f.Host(HostUser), addr, fid)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("file %d: %d holders survived expiry", fid, len(got))
		}
	}
	if n := srv.FileCount(); n != 0 {
		t.Fatalf("registry still tracks %d files after expiry", n)
	}
}
