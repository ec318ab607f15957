GO ?= go

.PHONY: build test vet vet-arm64 fmt gen-check race gates wire-audit race-audit race-metrics race-codec race-store race-dht race-wire race-fairshare race-overload bench-alloc bench-e2e-smoke bench-metrics bench-pairs benchpairs-test runpatterns-test bench-rlnc bench-grid-smoke chaos churn-smoke examples-smoke crash-smoke fuzz-smoke overload-smoke swarm-smoke ci check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails, naming them, if any Go file of the tree is not
# gofmt-clean. It lists the files with git — tracked, or new and not
# ignored — rather than walking the directory, so build and benchmark
# scratch (.bench_build/ holds whole exported checkouts) is never
# scanned.
fmt:
	@files=$$(git ls-files --cached --others --exclude-standard '*.go' | xargs gofmt -l) && \
		if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

# vet-arm64 cross-compiles and vets the tree for a GOARCH without the
# assembly arms (std cross-builds offline), so the portable fallbacks —
# gf's kernel_other.go, rlnc's digest_other.go — keep compiling even
# though CI only ever runs amd64.
vet-arm64:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...

# gen-check regenerates rlnc's MD5 lane kernels from gen_digest.go and
# fails if the result differs from the committed digest_amd64.s, so the
# generated file cannot drift from its generator.
gen-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
		(cd internal/rlnc && $(GO) run gen_digest.go) >"$$tmp" && \
		cmp "$$tmp" internal/rlnc/digest_amd64.s

# race runs every package under the race detector once — twice
# (-count=2) for the packages whose tests sweep crash points, injected
# faults or seeded fabric schedules, where the second pass over a warm
# process is the point. NETSIM_SEED=<seed> replays a harness test's
# fabric draws; the swarm scenarios' routing tables are built
# concurrently and do not replay (see chaos).
RACE_TWICE = ./internal/fsx/... ./internal/store/... ./internal/fairshare/... ./internal/netsim/...
race:
	$(GO) test -race $$($(GO) list ./... | grep -v -E '/internal/(fsx|store|fairshare|netsim)(/|$$)')
	$(GO) test -race -count=2 $(RACE_TWICE)

# gates are the checks the detector would distort, run plain and
# uncached: the 0-alloc gates on the frame, ingest, checksum, write-path
# mint, allocator, admission and disk-append hot paths (AllocsPerRun
# only counts without -race) and the frame pool's steady-state miss
# rate under a real FetchFile (a timing).
gates:
	$(GO) test -count=1 -run 'SteadyStateAllocs|SteadyStatePoolMisses|TestScratchReuseNoAlloc|TestAdmission.*Allocs' \
		./internal/wire/ ./internal/rlnc/ ./internal/gf/ ./internal/chunk/ ./internal/core/ ./internal/client/ ./internal/fairshare/ ./internal/peer/ ./internal/store/

# The race-* and *-smoke targets below are developer shortcuts: each is
# the slice of `race` (or of `test`) to run before touching one
# subsystem. `ci` runs none of them; it covers their packages whole.

# wire-audit checks what a fetch puts on the wire against what its
# manifest needs, from both ends (harness/split_test.go): unpaced peers
# serve at most 1.10 × the file's message bytes after one priming
# fetch; peers capped 1:2:2:4 are never marked and keep their shares.
# Counts and parsed frames, no timing.
wire-audit:
	$(GO) test -run 'TestSplitUnshapedPeersServeWhatTheManifestNeeds|TestSplitLeavesPacedPeersAlone' -count=1 ./internal/netsim/harness/

# race-audit exercises the audit path — the spot-check round, its
# caller core.SpotCheck (which core.Repair runs over every message) and
# the ledger its debits land in — under the race detector. Run before
# touching any of them.
race-audit: vet
	$(GO) test -race ./internal/audit/... ./internal/core/... ./internal/fairshare/...

# race-metrics exercises the observability layer and everything that
# writes into it concurrently: scrape-while-write in the registry, the
# shaped serving path, and the token bucket's SetRate/WaitN storm.
race-metrics: vet
	$(GO) test -race ./internal/metrics/... ./internal/peer/... ./internal/ratelimit/... ./internal/store/...

# race-codec exercises the parallel codec on both sides of the wire:
# concurrent producers into one rlnc.Pipeline retargeted across
# generations, concurrent minting from one rlnc.Encoder, the GF kernels
# and digest lanes under them (differentials on every arm), the
# pipeline's staged verify, chunk's in-place assembler, and core's
# streaming write path (encode workers, per-peer senders, failed- and
# stalled-peer cancellation). Run before touching rlnc, gf, chunk or
# core; the client's read path over the same pipeline is race-overload's.
race-codec: vet
	$(GO) test -race ./internal/rlnc/... ./internal/gf/... ./internal/chunk/... ./internal/core/...

# race-wire is the zero-copy hot path under the race detector: the
# buffer pool's refcounting, the FrameReader/FrameWriter differential,
# AddBytes into the pipeline, the peer's serve path, and the
# PeerSession's frame hand-off (a DATA frame delivered behind a finished
# stream's drain must still be released) — then the alloc and pool-miss
# gates, plain. Run before touching wire framing or buffer ownership.
race-wire: vet gates
	$(GO) test -race ./internal/wire/... ./internal/rlnc/... ./internal/peer/...
	$(GO) test -race -run 'TestDeliverAfterDrainReleasesFrame' -count=1 ./internal/client/

# race-store exercises the durability layer under the race detector,
# twice: the fsx filesystem seam and fault injector, the journaled
# store's crash-point and fault sweeps, and the ledger checkpointer.
# Run before touching anything that fsyncs.
race-store: vet
	$(GO) test -race -count=2 ./internal/fsx/... ./internal/store/... ./internal/fairshare/...

# race-dht exercises the discovery stack under the race detector: the
# Kademlia node (tables, iterative lookups, concurrent announce/lookup
# storms).
race-dht: vet
	$(GO) test -race ./internal/dht/...

# race-fairshare exercises the allocation stack under the race
# detector: the policy seam and its property/fuzz-seed suites, the
# ledger, the capacity estimator, and the peer realloc loop that
# consumes all three — then the alloc gates, plain. Run before touching
# a policy, the ledger or the realloc loop.
race-fairshare: vet gates
	$(GO) test -race ./internal/fairshare/... ./internal/estimate/... ./internal/peer/...

# churn-smoke is the churn acceptance slice: 3 of the 5 storage peers
# holding a file are killed and blackholed, a cold client still fetches
# byte-identical plaintext, and repair re-sends nothing and names
# exactly the dead holders — under -race, about 10 s.
churn-smoke:
	$(GO) test -race -run TestChurnKeepsFileFetchable ./internal/netsim/harness/

# swarm-smoke is the CI-sized discovery acceptance slice: a file is
# ring-placed on a 128-peer netsim swarm whose holders announce
# themselves through the DHT, and a cold client fetches byte-identical
# plaintext with every holder resolved through it — plus the DHT's own
# faults (a client-only announce, an unjoined node, a lookup through a
# blackholed directory and again once it is back) — under -race,
# about 10 s. ci does not
# run it: race already runs these tests twice as part of
# ./internal/netsim/...
swarm-smoke:
	$(GO) test -race -run 'TestSwarmSmoke|TestDiscoveryFaultsNetsim' ./internal/netsim/harness/

# overload-smoke is the overload-resilience acceptance slice: a 4x
# flash crowd against one admission-capped peer (goodput holds, sheds
# hit free riders in standing order and never the top quartile), a
# blackholed peer survived within 2x the no-fault baseline while its
# breaker opens, keeps it from being dialed, and closes on a probe, a
# peer wedged to 50 B/s that stalls no chunk and trips no breaker, and
# Eq. (2) at the paper's link rates (grants stay 0.75/0.25 whatever a
# requester drains) — plus the peer-side admission/brownout/deadline
# units and the client-side breaker/probe/session regressions.
overload-smoke:
	$(GO) test -run 'TestFlashCrowdShedsFreeRidersAndKeepsGoodput|TestBreakerGuardsFetchFromBlackholedPeerWithinTwiceBaseline|TestStalledPeerNeitherStallsFetchNorTripsBreaker|TestPaperRates' \
		./internal/netsim/harness/
	$(GO) test -run 'Admission|Shed|Brownout|Expired|Breaker|Probe|Quarantined|UnknownFile|Hedge|Busy|Deadline|DuplicateStreamError' \
		./internal/peer/ ./internal/client/ ./internal/wire/

# race-overload is the same slice under the race detector, plus the
# whole client, peer and chunk packages: the session set, the chunk
# ladder and the pipeline its rungs share and hand on, the breaker
# state machine that gates the ladder, and the peer's admission
# bookkeeping and stream table are all cross-goroutine by construction. The alloc gates then run
# plain. Run before touching the client's read path or the peer's
# admission.
race-overload: vet gates
	$(GO) test -race -run 'TestFlashCrowdShedsFreeRidersAndKeepsGoodput|TestBreakerGuardsFetchFromBlackholedPeerWithinTwiceBaseline|TestStalledPeerNeitherStallsFetchNorTripsBreaker|TestPaperRates|TestSplitSecondRound' \
		./internal/netsim/harness/
	$(GO) test -race ./internal/peer/ ./internal/client/ ./internal/chunk/

# crash-smoke is the crash-recovery acceptance slice on its own: every
# power-cut and I/O-fault sweep over the journaled store, the
# checkpointer's dual-slot sweeps, and the end-to-end
# kill-peer-mid-dissemination scenario in the harness.
crash-smoke:
	$(GO) test -run 'CrashPointSweep|FaultInjectionSweep|CheckpointCrashSweep|CheckpointFaultSweep|JournalRecoveryTable|PeerCrashMidDissemination' \
		./internal/store/ ./internal/fairshare/ ./internal/netsim/harness/

# bench-metrics reports allocs/op for the metrics hot path; Counter.Inc
# and Histogram.Observe must stay at 0 (TestHotPathAllocFree enforces
# it, this target is for eyeballing the numbers).
bench-metrics:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/metrics/

# bench-rlnc measures the codec engine: the GF region kernels and the
# codec grid that backs EXPERIMENTS.md — encode and both decode engines
# head to head over (p, k) on 1 MiB generations (at p=8, k=64, on a
# 2-core Xeon, both decode engines read ~210 MB/s since they share the
# gf kernels; TestPipelineSteadyStateAllocs pins the pipeline's 0 B/op).
bench-rlnc:
	$(GO) test -bench 'BenchmarkMulAddSlice|BenchmarkCodec' -benchmem -run '^$$' ./internal/gf/ ./internal/rlnc/

# bench-e2e-smoke compiles and exercises cmd/bench, the end-to-end
# benchmark the growth driver runs (BENCHMARK.json). It is a module of
# its own, so `go build ./...` and `go test ./...` never see it and an
# API rename in core/client/chunk/rlnc would otherwise break it
# silently: this runs its own tests, then one seconds-long pass over all
# four workloads (build outputs and scratch stay under .bench_build/).
bench-e2e-smoke:
	cd cmd/bench && GOFLAGS=-mod=readonly GOWORK=off $(GO) test ./...
	bash cmd/bench/run.sh -smoke

# bench-pairs is how a performance claim is measured (ROADMAP standing
# rules): PARENT is exported into .bench_build/, then N pairs of
# `cmd/bench/run.sh -workload W -seconds 20 -trace 0` run parent against
# working tree on seeds FIRST_SEED.., alternating which side goes first,
# and each metric gets its per-pair gain's median, quartiles and
# minimum and a verdict: "gain" (better in ≥ 9 of 10 pairs, median
# ≥ CLAIM) or "regressed" (median worse than the metric's bound). About
# N × 50 s per workload.
#   make bench-pairs PARENT=HEAD~1 N=10 W=loopback_fetch [FIRST_SEED=11 CLAIM=0.10]
N ?= 10
W ?= loopback_fetch
bench-pairs:
	bash scripts/benchpairs.sh $(PARENT) $(N) $(W)

# benchpairs-test runs bench-pairs' verdict over committed tables
# (scripts/testdata/benchpairs/) whose verdicts are known, and fails if
# one flips.
benchpairs-test:
	bash scripts/benchpairs_test.sh

# runpatterns-test fails when a -run pattern in this Makefile has gone
# stale: an alternative that matches no test in the packages its line
# lists, or a listed package no alternative selects (`go test -run X`
# exits 0 when X matches nothing). It first shows the check failing on
# the fixture scripts/testdata/runpatterns/Makefile.
runpatterns-test:
	bash scripts/runpatterns_test.sh

# bench-alloc measures the allocation subsystem — the ledger's realloc
# tick against up to 10^5 distinct requesters and the policy grid
# (fairness, free-rider payoff, convergence, fidelity under eviction);
# see EXPERIMENTS.md. Tracked entries must stay at the bound and the
# tick must scale with the active set, not the distinct population.
bench-alloc:
	$(GO) test -bench 'BenchmarkLedgerRealloc|BenchmarkAllocPolicyGrid' -benchmem -run '^$$' ./internal/fairshare/ ./

# bench-grid-smoke runs every cell of the codec, ledger-tick and
# policy grids once (about 15 s): it proves the grids run, not the
# numbers. CI runs it after make ci.
bench-grid-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkCodec|BenchmarkLedgerRealloc|BenchmarkAllocPolicyGrid' -benchtime 1x \
		./internal/rlnc/ ./internal/fairshare/ ./

# chaos runs the deterministic fault-injection suite — the netsim
# fabric's own tests plus the end-to-end harness (peers + clients over
# simulated partitions, blackholes and drops) — twice,
# under the race detector (the netsim half of `race`). Every harness
# test logs its fabric seed (shown with -v and on failure);
# NETSIM_SEED=<seed> make chaos replays its fabric draws. The swarm
# scenarios replay their data, placement and sample keys but not their
# routing tables or lookup hops: StartSwarm joins through a worker pool
# and lookups query Alpha contacts in parallel, so a failed hop gate
# logs its hop histogram instead.
chaos: vet
	$(GO) test -race -count=2 ./internal/netsim/...

# fuzz-smoke gives each wire fuzz target, the DHT request handler every
# peer port answers unauthenticated, the differential fuzzers of the GF
# region kernels (GF(2^32), and p = 4/8/16 on each dispatch arm) and of
# the eight-lane MD5 assembly, the message parser every PUT and PATCH
# payload goes through, and the handle loader every command that reads
# a handle starts with, a short
# adversarial run on top of the seed corpus (which plain `go test`
# already replays). New crashers land in the package's testdata/fuzz/.
fuzz-smoke:
	$(GO) test -fuzz FuzzReadFrame -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzFrameReader -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzHandshakeResponder -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzHandshakeInitiator -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzDHTRequest -fuzztime 10s -run '^$$' ./internal/dht/
	$(GO) test -fuzz FuzzKernel32 -fuzztime 10s -run '^$$' ./internal/gf/
	$(GO) test -fuzz FuzzSplitKernels -fuzztime 10s -run '^$$' ./internal/gf/
	$(GO) test -fuzz FuzzDigestBatch -fuzztime 10s -run '^$$' ./internal/rlnc/
	$(GO) test -fuzz FuzzMessageUnmarshal -fuzztime 10s -run '^$$' ./internal/rlnc/
	$(GO) test -fuzz FuzzLoadHandle -fuzztime 10s -run '^$$' ./internal/core/

# examples-smoke runs every program under examples/ to completion and
# fails on the first that exits non-zero: `build` only compiles them.
# About 12 s, most of it examples/remoteaccess.
examples-smoke:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null || { echo "$$d failed"; exit 1; }; \
	done

# ci is what the GitHub workflow runs: the gofmt check, the
# generated-kernel check, every package once plain, once under the
# detector (the fault-sweeping ones twice), the gates,
# the bench-pairs verdict's test, the -run pattern check, the examples
# run to completion, and the end-to-end benchmark's smoke.
ci: fmt vet vet-arm64 gen-check build test race gates benchpairs-test runpatterns-test examples-smoke bench-e2e-smoke

check: ci
