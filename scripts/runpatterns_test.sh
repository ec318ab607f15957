#!/usr/bin/env bash
# Checks that every `go test -run` pattern in a Makefile still selects
# tests. `go test -run X` exits 0 when X matches nothing, so a renamed
# or deleted test drops out of its target silently. For each recipe
# line with a -run pattern, every top-level alternative of the pattern
# must match a test in at least one of the packages the line lists, and
# every listed package must have a test that matches one alternative.
# Test names come from `go test -list`. The run-nothing pattern '^$' of
# the -bench and -fuzz targets is skipped.
#
#   bash scripts/runpatterns_test.sh             (also run by make ci)
#   bash scripts/runpatterns_test.sh MAKEFILE    check MAKEFILE only
#
# With no argument it first checks testdata/runpatterns/Makefile, whose
# three stale lines (a renamed test, the package that lost its only
# match with it, and a package the pattern never selected in) must all
# be reported, then the repository's Makefile, which must pass.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$dir/.."
GO="${GO:-go}"

# patterns MAKEFILE: one "target<TAB>pattern<TAB>packages" line per
# recipe line (tab-indented) that passes -run, continuation lines joined and make's $$
# unescaped.
patterns() {
	awk '
	/^[A-Za-z0-9_.-]+:/ { target = $0; sub(/:.*/, "", target) }
	{ line = line $0 }
	/\\$/ { sub(/\\$/, " ", line); next }
	{
		if (line ~ /^\t/ && line ~ /[ \t]test[ \t]/ && line ~ /[ \t]-run[ \t=]/) {
			rest = line
			sub(/.*[ \t]-run[ \t=]/, "", rest)
			q = substr(rest, 1, 1)
			if (q == "\x27" || q == "\"") {
				pat = substr(rest, 2)
				sub(q ".*", "", pat)
			} else {
				pat = rest
				sub(/[ \t].*/, "", pat)
			}
			gsub(/\$\$/, "$", pat)
			pkgs = ""
			n = split(line, f, /[ \t]+/)
			for (i = 1; i <= n; i++)
				if (f[i] ~ /^\.\//) pkgs = pkgs " " f[i]
			print target "\t" pat "\t" pkgs
		}
		line = ""
	}' "$1"
}

# list PKG: caches the names of the package's tests, examples and fuzz
# targets in listed[PKG].
declare -A listed
list() {
	if [ -z "${listed[$1]+x}" ]; then
		local out
		if ! out="$($GO test -list . "$1")"; then
			echo "go test -list failed for $1" >&2
			exit 2
		fi
		listed[$1]="$(grep -E '^(Test|Example|Fuzz)' <<<"$out" || true)"
	fi
}

# check MAKEFILE: prints one "stale:" line per alternative that matches
# no test and per package that no alternative matches.
check() {
	local target pat pkgs top alt pkg hit
	local -a alts pkglist
	while IFS=$'\t' read -r target pat pkgs; do
		[ "$pat" = '^$' ] && continue
		# go test splits -run on '/' into per-level patterns first;
		# only the top level names tests.
		top="${pat%%/*}"
		IFS='|' read -r -a alts <<<"$top"
		read -r -a pkglist <<<"$pkgs"
		if [ "${#pkglist[@]}" -eq 0 ]; then
			echo "stale: $target: -run '$pat' lists no package"
			continue
		fi
		for pkg in "${pkglist[@]}"; do list "$pkg"; done
		for alt in "${alts[@]}"; do
			hit=0
			for pkg in "${pkglist[@]}"; do
				if grep -qE -- "$alt" <<<"${listed[$pkg]}"; then
					hit=1
					break
				fi
			done
			[ "$hit" -eq 1 ] || echo "stale: $target: '$alt' matches no test in${pkgs}"
		done
		for pkg in "${pkglist[@]}"; do
			hit=0
			for alt in "${alts[@]}"; do
				if grep -qE -- "$alt" <<<"${listed[$pkg]}"; then
					hit=1
					break
				fi
			done
			[ "$hit" -eq 1 ] || echo "stale: $target: $pkg has no test matching '$pat'"
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
	"stale: paper-rates: ./internal/eventsim/ has no test matching 'TestPaperRates'"; do
	if grep -qxF -- "$want" <<<"$got"; then
		echo "ok   $fixture reports: $want"
	else
		echo "FAIL $fixture does not report: $want" >&2
		fails=$((fails + 1))
	fi
done
if [ "$(grep -c . <<<"$got")" -ne 3 ]; then
	echo "FAIL $fixture: want exactly 3 stale lines, got:" >&2
	echo "$got" >&2
	fails=$((fails + 1))
fi

got="$(check Makefile)"
if [ -n "$got" ]; then
	echo "$got" >&2
	fails=$((fails + 1))
else
	echo "ok   Makefile: every -run alternative and package selects a test"
fi

if [ "$fails" -ne 0 ]; then
	echo "runpatterns_test: $fails failed" >&2
	exit 1
fi
echo "runpatterns_test: ok"
