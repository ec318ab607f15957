package main

import "time"

// workloads are the four committed workloads, at the default plan the
// CLI runs (GF(2^32), m = 32768, 1 MiB chunks). Their parameters sit
// where the system works today, so that numbers repeat; README.md
// lists the regimes they deliberately avoid.
func workloads() []*spec {
	return []*spec{
		{
			name: "loopback_fetch",
			why: "16 MiB from 4 unshaped memory peers: the CPU-bound read path, where rlnc decode, wire, " +
				"client demux and peer serve do all the work and the shaper and allocator do none",
			fileSize:   16 * mib,
			peers:      4,
			warmups:    5,
			opDeadline: 5 * time.Second, // 5 × 16 MiB at a 16 MiB/s floor
		},
		{
			name: "shaped_fetch",
			why: "same file, peers capped 2/4/4/8 MiB/s (the paper's 1:2:2:4), FetchFile then StreamFile: the link-bound " +
				"read path, where ratelimit, fairshare and peer realloc decide the result and the codec idles",
			fileSize:   16 * mib,
			peers:      4,
			caps:       []float64{2 * mib, 4 * mib, 4 * mib, 8 * mib},
			warmups:    1,
			streams:    true,
			opDeadline: 5 * time.Second, // 5 × 16 MiB ÷ 18 MiB/s, rounded up
		},
		{
			name: "share_disk",
			why: "ShareFile 16 MiB then a one-chunk UpdateFile onto 4 journaled disk peers (device flush off): " +
				"the write path, encode-bound, where a change that speeds decode at encode's cost shows",
			share:      true,
			fileSize:   16 * mib,
			peers:      4,
			disk:       true,
			warmups:    1,
			opDeadline: 30 * time.Second, // 5 × 64 MiB of batches at a 10 MiB/s floor
		},
		{
			name: "crowd_fetch",
			why: "2 clients pre-credited 3:1 fetch 8 MiB files from 2 peers capped 16 MiB/s each: the serve " +
				"layers under contention, where Eq. (2) must split 0.75/0.25 on the live stack",
			fileSize:   8 * mib,
			peers:      2,
			caps:       []float64{16 * mib},
			credit:     []float64{3e6, 1e6},
			warmups:    1,
			opDeadline: 5 * time.Second, // 5 × 8 MiB ÷ client B's 8 MiB/s
		},
	}
}

func findWorkload(name string) *spec {
	for _, sp := range workloads() {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// smokeSpec shrinks a workload to one chunk so that a pass over all
// four finishes in seconds; the smoke run also caps every phase at two
// ops (runConfig.maxOps).
func smokeSpec(sp *spec) *spec {
	out := *sp
	out.fileSize = mib
	out.warmups = 1
	return &out
}
