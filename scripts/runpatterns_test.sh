#!/usr/bin/env bash
# Checks that every `go test -run` and `-bench` pattern in a Makefile
# still selects something. `go test -run X` (or `-bench X`) exits 0
# when X matches nothing, so a renamed or deleted test or benchmark
# drops out of its target silently. For each recipe line with a -run
# pattern, every top-level alternative of the pattern must match a test
# in at least one of the packages the line lists, and every listed
# package must have a test that matches one alternative; a -bench
# pattern is held to the same against the packages' benchmarks. Names
# come from `go test -list`. The run-nothing pattern '^$' of the -bench
# and -fuzz targets is skipped.
#
#   bash scripts/runpatterns_test.sh             (also run by make ci)
#   bash scripts/runpatterns_test.sh MAKEFILE    check MAKEFILE only
#
# With no argument it first checks testdata/runpatterns/Makefile, whose
# stale lines (a renamed test, the package that lost its only match with
# it, a package the pattern never selected in, and a folded benchmark)
# must all be reported, then the repository's Makefile, which must pass.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$dir/.."
GO="${GO:-go}"

# patterns MAKEFILE: one "target<TAB>flag<TAB>pattern<TAB>packages"
# line per -run and per -bench a `go test` recipe line (tab-indented)
# passes, continuation lines joined and make's $$ unescaped. A listed
# package is an argument starting with ./ (the root package is ./).
patterns() {
	awk '
	function pattern(line, flag,    rest, q, pat) {
		if (line !~ ("[ \t]" flag "[ \t=]"))
			return ""
		rest = line
		sub(".*[ \t]" flag "[ \t=]", "", rest)
		q = substr(rest, 1, 1)
		if (q == "\x27" || q == "\"") {
			pat = substr(rest, 2)
			sub(q ".*", "", pat)
		} else {
			pat = rest
			sub(/[ \t].*/, "", pat)
		}
		gsub(/\$\$/, "$", pat)
		return pat
	}
	/^[A-Za-z0-9_.-]+:/ { target = $0; sub(/:.*/, "", target) }
	{ line = line $0 }
	/\\$/ { sub(/\\$/, " ", line); next }
	{
		if (line ~ /^\t/ && line ~ /[ \t]test[ \t]/) {
			pkgs = ""
			n = split(line, f, /[ \t]+/)
			for (i = 1; i <= n; i++)
				if (f[i] ~ /^\.\//) pkgs = pkgs " " f[i]
			if ((pat = pattern(line, "-run")) != "") print target "\t-run\t" pat "\t" pkgs
			if ((pat = pattern(line, "-bench")) != "") print target "\t-bench\t" pat "\t" pkgs
		}
		line = ""
	}' "$1"
}

# list PKG: caches the names `go test -list` prints for the package —
# its tests, examples, fuzz targets and benchmarks — in listed[PKG].
declare -A listed
list() {
	if [ -z "${listed[$1]+x}" ]; then
		local out
		if ! out="$($GO test -list . "$1")"; then
			echo "go test -list failed for $1" >&2
			exit 2
		fi
		listed[$1]="$(grep -E '^(Test|Example|Fuzz|Benchmark)' <<<"$out" || true)"
	fi
}

# names FLAG PKG: the listed names FLAG selects among, one a line: the
# benchmarks for -bench, everything else for -run.
names() {
	if [ "$1" = -bench ]; then
		grep -E '^Benchmark' <<<"${listed[$2]}" || true
	else
		grep -vE '^Benchmark' <<<"${listed[$2]}" || true
	fi
}

# check MAKEFILE: prints one "stale:" line per alternative that matches
# no test (benchmark, for -bench) and per package that no alternative
# matches.
check() {
	local target flag pat pkgs top alt pkg hit kind
	local -a alts pkglist
	while IFS=$'\t' read -r target flag pat pkgs; do
		[ "$pat" = '^$' ] && continue
		kind=test
		[ "$flag" = -bench ] && kind=benchmark
		# go test splits the pattern on '/' into per-level patterns
		# first; only the top level names tests and benchmarks.
		top="${pat%%/*}"
		IFS='|' read -r -a alts <<<"$top"
		read -r -a pkglist <<<"$pkgs"
		if [ "${#pkglist[@]}" -eq 0 ]; then
			echo "stale: $target: $flag '$pat' lists no package"
			continue
		fi
		for pkg in "${pkglist[@]}"; do list "$pkg"; done
		for alt in "${alts[@]}"; do
			hit=0
			for pkg in "${pkglist[@]}"; do
				if names "$flag" "$pkg" | grep -qE -- "$alt"; then
					hit=1
					break
				fi
			done
			[ "$hit" -eq 1 ] || echo "stale: $target: '$alt' matches no $kind in${pkgs}"
		done
		for pkg in "${pkglist[@]}"; do
			hit=0
			for alt in "${alts[@]}"; do
				if names "$flag" "$pkg" | grep -qE -- "$alt"; then
					hit=1
					break
				fi
			done
			[ "$hit" -eq 1 ] || echo "stale: $target: $pkg has no $kind matching '$pat'"
		done
	done < <(patterns "$1")
}

if [ $# -gt 0 ]; then
	out="$(check "$1")"
	if [ -n "$out" ]; then
		echo "$out" >&2
		exit 1
	fi
	echo "runpatterns: $1 ok"
	exit 0
fi

fails=0
fixture="scripts/testdata/runpatterns/Makefile"
got="$(check "$fixture")"
for want in \
	"stale: gates: 'TestScratchReuseNoAllocation' matches no test in ./internal/wire/ ./internal/fairshare/" \
	"stale: gates: ./internal/fairshare/ has no test matching 'SteadyStateAllocs|TestScratchReuseNoAllocation'" \
	"stale: paper-rates: ./internal/sim/ has no test matching 'TestPaperRates'" \
	"stale: bench-codec: 'BenchmarkDecodePipeline' matches no benchmark in ./internal/rlnc/" \
	"stale: bench-codec: ./internal/rlnc/ has no benchmark matching 'BenchmarkDecodePipeline'"; do
	if grep -qxF -- "$want" <<<"$got"; then
		echo "ok   $fixture reports: $want"
	else
		echo "FAIL $fixture does not report: $want" >&2
		fails=$((fails + 1))
	fi
done
if [ "$(grep -c . <<<"$got")" -ne 5 ]; then
	echo "FAIL $fixture: want exactly 5 stale lines, got:" >&2
	echo "$got" >&2
	fails=$((fails + 1))
fi

got="$(check Makefile)"
if [ -n "$got" ]; then
	echo "$got" >&2
	fails=$((fails + 1))
else
	echo "ok   Makefile: every -run and -bench alternative and package selects a test or benchmark"
fi

if [ "$fails" -ne 0 ]; then
	echo "runpatterns_test: $fails failed" >&2
	exit 1
fi
echo "runpatterns_test: ok"
