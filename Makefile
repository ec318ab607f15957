GO ?= go

.PHONY: build test vet vet-arm64 gen-check race gates wire-audit race-audit race-metrics race-codec race-store race-dht race-contract race-wire race-fairshare race-overload bench-alloc bench-alloc-smoke bench-e2e-smoke bench-metrics bench-pairs bench-rlnc bench-rlnc-smoke bench-swarm bench-swarm-smoke chaos churn-smoke crash-smoke fuzz-smoke overload-smoke swarm-smoke ci check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

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
# process is the point. NETSIM_SEED=<seed> replays a harness failure.
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

# race-audit exercises the audit path — the spot-check round, its two
# callers (core.SpotCheck and the repair daemon's probe) and the ledger
# their debits land in — under the race detector. Run before touching
# any of them.
race-audit: vet
	$(GO) test -race ./internal/audit/... ./internal/core/... ./internal/repair/... ./internal/fairshare/...

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

# race-dht exercises the trackerless discovery stack under the race
# detector: the Kademlia node (tables, iterative lookups, concurrent
# announce/lookup storms), the Discovery seam with its failover chain,
# and the rumor-gossip engine's exchange/round machinery.
race-dht: vet
	$(GO) test -race ./internal/dht/... ./internal/discovery/... ./internal/gossip/...

# race-fairshare exercises the allocation stack under the race
# detector: the policy seam and its property/fuzz-seed suites, the
# ledger, the capacity estimators, and the peer realloc loop that
# consumes all three — then the alloc gates, plain. Run before touching
# a policy, the ledger or the realloc loop.
race-fairshare: vet gates
	$(GO) test -race ./internal/fairshare/... ./internal/estimate/... ./internal/peer/...

# race-contract exercises the storage-contract subsystem under the
# race detector: the journaled book/set, the wire frames, the peer
# handlers and client RPCs, and the proactive repair daemon whose
# ticker races its own Close.
race-contract: vet
	$(GO) test -race ./internal/contract/... ./internal/repair/... ./internal/peer/... ./internal/client/...

# churn-smoke is the proactive-repair acceptance slice: 30% of the
# storage peers holding a file are killed and blackholed, the repair
# daemon restores the replica watermark on spare peers within a 3x
# traffic budget, a cold client still fetches byte-identical plaintext,
# and contract state on both sides survives a power cut — under -race.
churn-smoke:
	$(GO) test -race -run TestChurnRepairKeepsFileFetchable ./internal/netsim/harness/

# swarm-smoke is the CI-sized trackerless acceptance slice: a 128-peer
# netsim swarm gossips a file, the tracker is killed mid-run, and a
# cold client still fetches byte-identical plaintext through DHT
# discovery — plus the failover-direction tests — under -race.
swarm-smoke:
	$(GO) test -race -run 'TestSwarmSmoke|TestDiscoveryFailoverNetsim' ./internal/netsim/harness/

# overload-smoke is the overload-resilience acceptance slice: a 4x
# flash crowd against one admission-capped peer (goodput holds, sheds
# hit free riders in standing order and never the top quartile), a
# blackholed peer survived within 2x the no-fault baseline via hedges
# and breaker quarantine, a stalled chunk re-issued on the next peer,
# and Eq. (2) at the paper's link rates (grants stay 0.75/0.25 whatever
# a requester drains) — plus the peer-side admission/brownout/deadline
# units and the client-side breaker/session regressions.
overload-smoke:
	$(GO) test -run 'TestFlashCrowdShedsFreeRidersAndKeepsGoodput|TestHedgedFetchSurvivesBlackholedPeerWithinTwiceBaseline|TestHedgeReissuesStalledChunkOnNextPeer|TestPaperRates' \
		./internal/netsim/harness/
	$(GO) test -run 'Admission|Shed|Brownout|Expired|Breaker|Hedge|Busy|Deadline|DuplicateStreamError' \
		./internal/peer/ ./internal/client/ ./internal/wire/

# race-overload is the same slice under the race detector, plus the
# whole client, peer and chunk packages: the session set, the chunk
# ladder and the pipeline its rungs share and hand on, the breaker
# state machine, and the peer's admission bookkeeping and stream table
# are all cross-goroutine by construction. The alloc gates then run
# plain. Run before touching the client's read path or the peer's
# admission.
race-overload: vet gates
	$(GO) test -race -run 'TestFlashCrowdShedsFreeRidersAndKeepsGoodput|TestHedgedFetchSurvivesBlackholedPeerWithinTwiceBaseline|TestHedgeReissuesStalledChunkOnNextPeer|TestPaperRates|TestSplitSecondRound' \
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

# bench-rlnc measures the codec engine: the GF region kernels, both
# decode engines head to head, and the codec grid that backs
# EXPERIMENTS.md, leaving the machine-readable report in
# BENCH_rlnc.json (decode-pipeline must show >= 2x decode-sequential
# MB/s at p=8, k=64; TestPipelineSteadyStateAllocs pins the 0 B/op
# claim).
bench-rlnc:
	$(GO) test -bench 'BenchmarkMulAddSlice|BenchmarkDecode' -benchmem -run '^$$' ./internal/gf/ ./internal/rlnc/
	$(GO) run ./cmd/benchrlc -codec -size 1048576 -reps 5 -before BENCH_rlnc.json -json BENCH_rlnc.json

# bench-rlnc-smoke is the quick CI variant: tiny generations, one rep,
# throwaway report — it proves the grid runs, not the numbers.
bench-rlnc-smoke:
	$(GO) run ./cmd/benchrlc -codec -size 65536 -reps 1 -json /tmp/BENCH_rlnc_smoke.json

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
# working tree, alternating which side goes first, and each metric's
# medians, quartiles and "better in n of N" are printed. About
# N × 50 s per workload.
#   make bench-pairs PARENT=HEAD~1 N=10 W=loopback_fetch
N ?= 10
W ?= loopback_fetch
bench-pairs:
	bash scripts/benchpairs.sh $(PARENT) $(N) $(W)

# bench-swarm measures trackerless scaling — DHT lookup hops and gossip
# dissemination rounds/time against swarm size — leaving the
# machine-readable report in BENCH_swarm.json (median hops must grow
# sub-linearly in N; see EXPERIMENTS.md).
bench-swarm:
	$(GO) run ./cmd/benchswarm -sizes 64,256,1024 -samples 32 -json BENCH_swarm.json

# bench-swarm-smoke is the quick CI variant: one small swarm, throwaway
# report — it proves the pipeline runs, not the scaling curve.
bench-swarm-smoke:
	$(GO) run ./cmd/benchswarm -sizes 64 -samples 8 -json /tmp/BENCH_swarm_smoke.json

# bench-alloc measures the allocation subsystem — the policy grid
# (fairness, free-rider payoff, convergence, fidelity under eviction)
# and the ledger's realloc tick against 10^5 distinct requesters —
# leaving the machine-readable report in BENCH_alloc.json (see
# EXPERIMENTS.md; tracked entries must stay at the bound and the tick
# must scale with the active set, not the distinct population).
bench-alloc:
	$(GO) run ./cmd/benchalloc -slots 600 -json BENCH_alloc.json

# bench-alloc-smoke is the quick CI variant: a short run, throwaway
# report — it proves the grid and tick bench run, not the numbers.
bench-alloc-smoke:
	$(GO) run ./cmd/benchalloc -slots 120 -json /tmp/BENCH_alloc_smoke.json

# chaos runs the deterministic fault-injection suite — the netsim
# fabric's own tests plus the end-to-end harness (tracker + peers +
# clients over simulated partitions, blackholes and drops) — twice,
# under the race detector (the netsim half of `race`). Every harness
# test logs its fabric seed (shown with -v and on failure); replay an
# exact failure with NETSIM_SEED=<seed> make chaos.
chaos: vet
	$(GO) test -race -count=2 ./internal/netsim/...

# fuzz-smoke gives each wire fuzz target, and the differential fuzzers
# of the two assembly kernels (GF(2^32) region multiply, eight-lane
# MD5), a short adversarial run on top of the seed corpus (which plain
# `go test` already replays). New crashers land in the package's
# testdata/fuzz/.
fuzz-smoke:
	$(GO) test -fuzz FuzzReadFrame -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzFrameReader -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzHandshakeResponder -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzHandshakeInitiator -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzKernel32 -fuzztime 10s -run '^$$' ./internal/gf/
	$(GO) test -fuzz FuzzDigestBatch -fuzztime 10s -run '^$$' ./internal/rlnc/

# ci is what the GitHub workflow runs: the generated-kernel check, every
# package once plain, once under the detector, the gates, and the
# end-to-end benchmark's smoke.
ci: vet vet-arm64 gen-check build test race gates bench-e2e-smoke

check: ci
