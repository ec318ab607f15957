#!/usr/bin/env bash
# Paired runs of cmd/bench: a parent revision against the working tree,
# one workload, N pairs, alternating which side goes first — the
# measurement every performance claim in this repository rests on
# (ROADMAP standing rules, cmd/bench/README.md).
#
#   scripts/benchpairs.sh PARENT [N] [WORKLOAD]
#   make bench-pairs PARENT=<rev> N=10 W=loopback_fetch
#
# Pair i runs seed FIRST_SEED + i - 1 (FIRST_SEED defaults to 1, so a
# claim can be re-run on seeds it has not used). CLAIM (default 0.10)
# is the size of the claimed gain the verdict tests for.
#
# PARENT is exported with `git archive` into .bench_build/pairs/ (no
# worktree is registered, nothing outside .bench_build/ is written) and
# each side is built and run by its own cmd/bench/run.sh. Every run's
# metric lines, and the load average before and after it, are kept in
# .bench_build/pairs/<workload>-<rev>-seeds<first>-<last>.tsv under a
# header naming both commits, the CPU and nproc. The summary,
# scripts/benchpairs_summary.awk, judges the claim by its pairs: per
# metric, the per-pair gain's median, quartiles and minimum, and a
# verdict ("gain", "regressed" or "-"); each side's unpaired median and
# quartiles stay beside it as context. It runs over an existing table
# too: awk -v claim=0.10 -f scripts/benchpairs_summary.awk TABLE.tsv
set -euo pipefail

parent="${1:?usage: scripts/benchpairs.sh PARENT [N] [WORKLOAD]}"
n="${2:-10}"
workload="${3:-loopback_fetch}"
seconds="${SECONDS_PER_RUN:-20}"
first="${FIRST_SEED:-1}"
claim="${CLAIM:-0.10}"
last=$((first + n - 1))

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="$(git -C "$root" rev-parse --short "$parent^{commit}")"
head="$(git -C "$root" rev-parse --short HEAD)"
if [ -n "$(git -C "$root" status --porcelain)" ]; then
	head="$head + uncommitted changes"
fi
pairs="$root/.bench_build/pairs"
pdir="$pairs/parent-$rev"
if [ ! -d "$pdir" ]; then
	mkdir -p "$pdir"
	git -C "$root" archive "$rev" | tar -x -C "$pdir"
fi
tsv="$pairs/$workload-$rev-seeds$first-$last.tsv"

cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1 || true)"
flags="$(sed -n 's/^flags[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1 | tr ' ' '\n' | grep -E '^(sse4|avx|bmi|gfni|vpclmul)' | tr '\n' ' ' || true)"
{
	echo "# $workload: $n pairs, seeds $first..$last, ${seconds}s runs, claim $claim"
	echo "# parent $rev, change $head"
	echo "# cpu ${cpu:-unknown}; nproc $(nproc); flags ${flags:-unknown}"
} >"$tsv"

# loadavg prints the 1-minute load average, or nothing where the host
# has no /proc/loadavg.
loadavg() { cut -d ' ' -f 1 /proc/loadavg 2>/dev/null || true; }

# run SIDE DIR PAIR SEED: one timed run; its metric lines ("  name value
# unit ↑|↓ [n=…] [bound=…]") go to the table as side, pair, name, value,
# direction, bound, between the load average before and after it.
run() {
	local log="$pairs/$workload-$1.log" before after
	before="$(loadavg)"
	if ! (cd "$2" && bash cmd/bench/run.sh -workload "$workload" -seed "$4" -seconds "$seconds" -trace 0) >"$log" 2>&1; then
		echo "benchpairs: $1 run of pair $3 (seed $4) failed, see $log" >&2
		exit 1
	fi
	after="$(loadavg)"
	awk -v side="$1" -v pair="$3" '
	/^  [a-z_0-9]+ +[-0-9.e+]+ / {
		dir = ""; bound = ""
		for (i = 3; i <= NF; i++) {
			if ($i == "↑" || $i == "↓") dir = $i
			if ($i ~ /^bound=/) bound = substr($i, 7) ($(i + 1) == "abs" ? " abs" : "")
		}
		print side "\t" pair "\t" $1 "\t" $2 "\t" dir "\t" bound
	}' "$log" >>"$tsv"
	if [ -n "$before" ] && [ -n "$after" ]; then
		printf '%s\t%s\tload_before\t%s\n%s\t%s\tload_after\t%s\n' "$1" "$3" "$before" "$1" "$3" "$after" >>"$tsv"
	fi
	echo "  $1 seed $4: load $before -> $after" >&2
}

for pair in $(seq 1 "$n"); do
	seed=$((first + pair - 1))
	if [ $((pair % 2)) -eq 1 ]; then
		run parent "$pdir" "$pair" "$seed"
		run change "$root" "$pair" "$seed"
	else
		run change "$root" "$pair" "$seed"
		run parent "$pdir" "$pair" "$seed"
	fi
	echo "pair $pair of $n done" >&2
done

awk -v claim="$claim" -f "$root/scripts/benchpairs_summary.awk" "$tsv"
