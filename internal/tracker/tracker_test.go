package tracker

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func startServer(t *testing.T, maxTTL time.Duration) *Server {
	t.Helper()
	s := NewServer(maxTTL)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAnnounceAndLookup(t *testing.T) {
	s := startServer(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	addr := s.Addr().String()

	if err := Announce(ctx, nil, addr, 42, "peerA:7070", 0); err != nil {
		t.Fatal(err)
	}
	if err := Announce(ctx, nil, addr, 42, "peerB:7070", 0); err != nil {
		t.Fatal(err)
	}
	if err := Announce(ctx, nil, addr, 43, "peerC:7070", 0); err != nil {
		t.Fatal(err)
	}

	got, err := Lookup(ctx, nil, addr, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "peerA:7070" || got[1] != "peerB:7070" {
		t.Fatalf("Lookup(42) = %v", got)
	}
	got, err = Lookup(ctx, nil, addr, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("Lookup(99) = %v, want empty", got)
	}
	if s.FileCount() != 2 {
		t.Errorf("FileCount = %d", s.FileCount())
	}
}

func TestAnnounceRefreshIsIdempotent(t *testing.T) {
	s := startServer(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	addr := s.Addr().String()
	for i := 0; i < 3; i++ {
		if err := Announce(ctx, nil, addr, 1, "p:1", 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Lookup(ctx, nil, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Lookup = %v", got)
	}
}

func TestExpiry(t *testing.T) {
	s := NewServer(time.Hour)
	// Direct (no network) with a fake clock.
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return now }
	s.announce(announceMsg{FileID: 7, Addr: "p:1", TTLSec: 60})
	s.announce(announceMsg{FileID: 7, Addr: "p:2"}) // maxTTL (1h)
	if got := s.Lookup(7); len(got) != 2 {
		t.Fatalf("Lookup = %v", got)
	}
	now = now.Add(2 * time.Minute)
	if got := s.Lookup(7); len(got) != 1 || got[0] != "p:2" {
		t.Fatalf("after short TTL expiry: %v", got)
	}
	now = now.Add(2 * time.Hour)
	if got := s.Lookup(7); len(got) != 0 {
		t.Fatalf("after full expiry: %v", got)
	}
	if s.FileCount() != 0 {
		t.Errorf("FileCount = %d after expiry", s.FileCount())
	}
}

func TestTTLCappedByServer(t *testing.T) {
	s := NewServer(time.Minute)
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return now }
	s.announce(announceMsg{FileID: 1, Addr: "p:1", TTLSec: 3600}) // wants 1h
	now = now.Add(2 * time.Minute)                                // > server max
	if got := s.Lookup(1); len(got) != 0 {
		t.Fatalf("entry outlived server cap: %v", got)
	}
}

func TestLookupBadAddress(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := Lookup(ctx, nil, "127.0.0.1:1", 1); err == nil {
		t.Error("lookup against closed port succeeded")
	}
	if err := Announce(ctx, nil, "127.0.0.1:1", 1, "p", 0); err == nil {
		t.Error("announce against closed port succeeded")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := startServer(t, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err == nil {
		t.Error("Start after Close succeeded")
	}
}

func TestConcurrentAnnounces(t *testing.T) {
	s := startServer(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	addr := s.Addr().String()
	errCh := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			errCh <- Announce(ctx, nil, addr, uint64(g%4), "peer:"+string(rune('a'+g)), 0)
		}(g)
	}
	for i := 0; i < 16; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if s.FileCount() != 4 {
		t.Errorf("FileCount = %d, want 4", s.FileCount())
	}
}

// TestSilentConnectionIsDropped: a dialer that connects and never
// speaks is disconnected after connTimeout instead of holding a handler
// goroutine until the tracker closes.
func TestSilentConnectionIsDropped(t *testing.T) {
	saved := connTimeout
	t.Cleanup(func() { connTimeout = saved }) // after the server's Close
	connTimeout = 100 * time.Millisecond
	s := startServer(t, 0)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read on a silent connection = %v, want EOF: the tracker never hung up", err)
	}
}
