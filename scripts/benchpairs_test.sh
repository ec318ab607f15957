#!/usr/bin/env bash
# Tests scripts/benchpairs_summary.awk, the verdict of
# scripts/benchpairs.sh, over tables in testdata/benchpairs/. Three of
# them are per-pair tables from the run log of commit 24b3b93 (the
# segmented batch mint, in experiments/), whose verdicts are known; the
# fourth is synthetic and must read "regressed". Exits non-zero if any
# verdict flips.
#
#   bash scripts/benchpairs_test.sh      (also run by make ci)
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
data="$dir/testdata/benchpairs"
fails=0

summary() { awk -v claim="$2" -f "$dir/benchpairs_summary.awk" "$data/$1"; }

# expect TABLE CLAIM METRIC VERDICT: the metric's verdict column, "-"
# for neither gain nor regressed.
expect() {
	local got
	got="$(summary "$1" "$2" | awk -v m="$3" '$1 == m { print $NF }')"
	if [ "$got" = "$4" ]; then
		echo "ok   $1 claim=$2: $3 reads $4"
	else
		echo "FAIL $1 claim=$2: $3 reads '$got', want '$4'" >&2
		fails=$((fails + 1))
	fi
}

# 24b3b93's share_disk pairs: +13.5 % per-pair goodput on both seed
# sets, better in 10 and 9 of 10. Peak RSS rose 8–12 %, inside its 0.25
# bound.
for t in writepath-seeds1-10.tsv writepath-seeds11-20.tsv; do
	expect "$t" 0.10 goodput_mibps gain
	expect "$t" 0.20 goodput_mibps -
	expect "$t" 0.10 peak_rss_mib -
done
# The batch-mint ablation (per-message mint as parent, batch mint as
# change): −0.1 %.
expect mint-ablation.tsv 0.10 goodput_mibps -
# Synthetic: 30 % slower, a tenth of ops failing (absolute bound, the
# parent at 0), share_a 0.04 down against a +0.03 abs bound,
# cap_overshoot 0.15 up against +0.1 abs (only 7.5 % of its parent's
# 2.0, so it must be judged by the difference); wire overhead 3 % up,
# inside its 0.05.
expect regressed.tsv 0.10 goodput_mibps regressed
expect regressed.tsv 0.10 fail_share regressed
expect regressed.tsv 0.10 share_a regressed
expect regressed.tsv 0.10 cap_overshoot regressed
expect regressed.tsv 0.10 wire_overhead -

want="load moved by more than one core in pair(s): 2"
if summary regressed.tsv 0.10 | grep -qF "$want"; then
	echo "ok   regressed.tsv: pair 2 marked for load"
else
	echo "FAIL regressed.tsv: no line '$want'" >&2
	fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
	echo "benchpairs_test: $fails failed" >&2
	exit 1
fi
echo "benchpairs_test: ok"
