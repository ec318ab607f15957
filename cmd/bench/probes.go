package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// The probes are short memory-only loops at the workload's geometry
// (default plan, one chunk): each layer's ceiling when nothing else is
// in its way, for reading the composed run's numbers against.

// probeChunk builds one chunk's share and mints one peer's batch.
func probeChunk(seed int64) (*chunk.Share, []*rlnc.Message, error) {
	plan := chunk.DefaultPlan()
	share, err := chunk.BuildShare("probe", seedData(seed, 77, plan.ChunkSize), plan, 1, []byte("probe-secret"))
	if err != nil {
		return nil, nil, err
	}
	batches, err := share.BatchForPeer(0, 1<<31-1)
	if err != nil {
		return nil, nil, err
	}
	return share, batches[0], nil
}

// runProbes returns the four ceilings in MiB/s, each measured for d.
func runProbes(seed int64, d time.Duration, scratch string) (map[string]float64, error) {
	share, batch, err := probeChunk(seed)
	if err != nil {
		return nil, err
	}
	plan := share.Manifest.Plan
	out := make(map[string]float64)

	// Encode: mint a peer's batch for the chunk, plaintext bytes/s.
	var bytes int64
	start := time.Now()
	for peerIdx := 0; time.Since(start) < d; peerIdx++ {
		if _, err := share.BatchForPeer(peerIdx, 1<<31-1); err != nil {
			return nil, err
		}
		bytes += int64(plan.ChunkSize)
	}
	out["rlnc.encode_mibps"] = float64(bytes) / mib / time.Since(start).Seconds()

	// Decode: a fresh pipeline per chunk, as the fetch path builds them.
	raw := make([][]byte, len(batch))
	for i, msg := range batch {
		if raw[i], err = msg.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	info := share.Manifest.Chunks[0]
	params, err := info.Params(plan)
	if err != nil {
		return nil, err
	}
	bytes = 0
	start = time.Now()
	for time.Since(start) < d {
		p, err := rlnc.NewPipeline(params, info.FileID, share.Secret, info.Digests, rlnc.PipelineConfig{})
		if err != nil {
			return nil, err
		}
		for _, b := range raw {
			if _, err := p.AddBytes(b); err != nil {
				p.Close()
				return nil, err
			}
		}
		data, err := p.Decode()
		p.Close()
		if err != nil {
			return nil, err
		}
		bytes += int64(len(data))
	}
	out["rlnc.decode_mibps"] = float64(bytes) / mib / time.Since(start).Seconds()

	if out["wire.transport_mibps"], err = probeTransport(raw[0], d); err != nil {
		return nil, err
	}
	if out["store.disk_put_mibps"], err = probeDiskPut(batch, d, scratch); err != nil {
		return nil, err
	}
	return out, nil
}

// probeTransport streams DATA frames of one message over a loopback TCP
// connection into a reader that only counts them.
func probeTransport(frame []byte, d time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	sendErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			sendErr <- err
			return
		}
		defer conn.Close()
		fw := wire.NewFrameWriter(conn)
		for start := time.Now(); time.Since(start) < d; {
			if err := fw.WriteFrame(wire.TypeData, frame); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	fr := wire.NewFrameReader(conn)
	var bytes int64
	start := time.Now()
	for {
		_, b, err := fr.Next()
		if err != nil {
			break // sender closed after d
		}
		bytes += int64(b.Len())
		b.Release()
	}
	elapsed := time.Since(start).Seconds()
	if err := <-sendErr; err != nil {
		return 0, fmt.Errorf("transport probe: %w", err)
	}
	return float64(bytes) / mib / elapsed, nil
}

// probeDiskPut appends one chunk's batch to a journaled disk store,
// fsync per message, dropping the file between rounds.
func probeDiskPut(batch []*rlnc.Message, d time.Duration, scratch string) (float64, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenDisk(dir)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var bytes int64
	start := time.Now()
	for time.Since(start) < d {
		for _, msg := range batch {
			if err := st.Put(msg); err != nil {
				return 0, err
			}
			bytes += int64(len(msg.Payload))
		}
		if err := st.Drop(batch[0].FileID); err != nil {
			return 0, err
		}
	}
	return float64(bytes) / mib / time.Since(start).Seconds(), nil
}
