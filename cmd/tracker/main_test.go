package main

import (
	"bytes"
	"context"
	"strings"
	"syscall"
	"testing"
	"time"

	"asymshare/internal/tracker"
)

func TestRunServesUntilSignal(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-ttl", "1m"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("tracker did not start")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tracker.Announce(ctx, nil, addr, 5, "p:1", 0); err != nil {
		t.Fatal(err)
	}
	got, err := tracker.Lookup(ctx, nil, addr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "p:1" {
		t.Fatalf("Lookup = %v", got)
	}

	// Signal the process to shut down.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tracker did not shut down on SIGTERM")
	}
	if !strings.Contains(out.String(), "tracker listening") {
		t.Errorf("output: %q", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-listen", "256.256.256.256:1"}, &out, nil); err == nil {
		t.Error("bad listen address accepted")
	}
	if err := run([]string{"-bogus"}, &out, nil); err == nil {
		t.Error("unknown flag accepted")
	}
}
