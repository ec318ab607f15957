#!/usr/bin/env bash
# Paired runs of cmd/bench: a parent revision against the working tree,
# one workload, N pairs, alternating which side goes first — the
# measurement every performance claim in this repository rests on
# (ROADMAP standing rules, cmd/bench/README.md).
#
#   scripts/benchpairs.sh PARENT [N] [WORKLOAD]
#   make bench-pairs PARENT=<rev> N=10 W=loopback_fetch
#
# PARENT is exported with `git archive` into .bench_build/pairs/ (no
# worktree is registered, nothing outside .bench_build/ is written) and
# each side is built and run by its own cmd/bench/run.sh. Every run's
# metric lines are kept in .bench_build/pairs/<workload>-<rev>.tsv; the
# summary gives, per metric, each side's median and quartiles and in how
# many of the pairs the change read better, ties counting for neither.
set -euo pipefail

parent="${1:?usage: scripts/benchpairs.sh PARENT [N] [WORKLOAD]}"
n="${2:-10}"
workload="${3:-loopback_fetch}"
seconds="${SECONDS_PER_RUN:-20}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="$(git -C "$root" rev-parse --short "$parent^{commit}")"
pairs="$root/.bench_build/pairs"
pdir="$pairs/parent-$rev"
if [ ! -d "$pdir" ]; then
	mkdir -p "$pdir"
	git -C "$root" archive "$rev" | tar -x -C "$pdir"
fi
tsv="$pairs/$workload-$rev.tsv"
: >"$tsv"

# run SIDE DIR PAIR: one timed run; its metric lines ("  name value unit
# ↑|↓ ...") go to the table as side, pair, name, value, direction.
run() {
	local log="$pairs/$workload-$1.log"
	if ! (cd "$2" && bash cmd/bench/run.sh -workload "$workload" -seed "$3" -seconds "$seconds" -trace 0) >"$log" 2>&1; then
		echo "benchpairs: $1 run of pair $3 failed, see $log" >&2
		exit 1
	fi
	awk -v side="$1" -v pair="$3" '/^  [a-z_0-9]+ +[-0-9.e+]+ / { print side "\t" pair "\t" $1 "\t" $2 "\t" $4 }' "$log" >>"$tsv"
}

for pair in $(seq 1 "$n"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run parent "$pdir" "$pair"
		run change "$root" "$pair"
	else
		run change "$root" "$pair"
		run parent "$pdir" "$pair"
	fi
	echo "pair $pair of $n done" >&2
done

echo "$workload: $n pairs, parent $rev vs working tree, ${seconds}s runs, seeds 1..$n"
awk -F'\t' '
function quantile(v, cnt, q,    pos, lo) {
	pos = 1 + (cnt - 1) * q; lo = int(pos)
	return lo >= cnt ? v[cnt] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function summary(side, m,    cnt, i, j, t, v) {
	cnt = 0
	for (i = 1; i <= pairs; i++) if ((side, i, m) in val) v[++cnt] = val[side, i, m]
	for (i = 2; i <= cnt; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	return sprintf("%10.4g [%.4g, %.4g]", quantile(v, cnt, 0.5), quantile(v, cnt, 0.25), quantile(v, cnt, 0.75))
}
{
	val[$1, $2, $3] = $4; dir[$3] = $5
	if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
	if ($2 > pairs) pairs = $2
}
END {
	printf "%-18s %-34s %-34s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change better in"
	for (k = 1; k <= metrics; k++) {
		m = order[k]; better = 0; worse = 0; both = 0
		for (i = 1; i <= pairs; i++) {
			if (!(("parent", i, m) in val) || !(("change", i, m) in val)) continue
			both++
			d = val["change", i, m] - val["parent", i, m]
			if (dir[m] == "↑") d = -d
			if (d < 0) better++
			if (d > 0) worse++
		}
		printf "%-18s %-34s %-34s %d of %d, worse in %d  (%s is better)\n", m, summary("parent", m), summary("change", m), better, both, worse, dir[m]
	}
}' "$tsv"
