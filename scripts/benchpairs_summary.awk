# Summary of a scripts/benchpairs.sh table: the verdict on a claim,
# judged by its pairs. Runs over any table the script left behind:
#
#   awk -f scripts/benchpairs_summary.awk [-v claim=0.10] TABLE.tsv
#
# The table has one row per (side, pair, metric): side ("parent" or
# "change"), pair number, metric, value, direction ("↑" or "↓") and the
# bound from the metric's line ("0.25", "+0.03 abs", "+0", or empty).
# Rows named load_before / load_after hold the 1-minute load average
# around each side's run. Lines starting with "#" are the run's header
# and are printed as they are.
#
# Per metric and pair, the change's gain over the parent is
# change ÷ parent − 1, sign-flipped for ↓ metrics so that positive is
# always better. Where the bound is absolute ("+…") or a pair's parent
# reads 0, the gain is the difference change − parent instead (again
# sign-flipped for ↓), in the metric's own unit. The verdict reads
#   gain       when the change is better in ≥ 9 of 10 pairs (a sign
#              test at p ≈ 0.02) and the median gain reaches claim;
#   regressed  when the median gain is worse than −bound;
#   -          otherwise.
# Each side's unpaired median and quartiles are printed as context.
BEGIN {
	FS = "\t"
	if (claim == "") claim = 0.10
}
/^#/ { print; next }
NF < 4 { next }
$3 ~ /^load_/ {
	load[$1, $2, $3] = $4
	if ($2 > pairs) pairs = $2
	next
}
{
	val[$1, $2, $3] = $4; dir[$3] = $5; bound[$3] = $6
	if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
	if ($2 > pairs) pairs = $2
}

function sort(v, cnt,    i, j, t) {
	for (i = 2; i <= cnt; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
}
function quantile(v, cnt, q,    pos, lo) {
	pos = 1 + (cnt - 1) * q; lo = int(pos)
	return lo >= cnt ? v[cnt] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function unpaired(side, m,    cnt, i, v) {
	cnt = 0
	for (i = 1; i <= pairs; i++) if ((side, i, m) in val) v[++cnt] = val[side, i, m]
	if (cnt == 0) return "-"
	sort(v, cnt)
	return sprintf("%.4g [%.4g, %.4g]", quantile(v, cnt, 0.5), quantile(v, cnt, 0.25), quantile(v, cnt, 0.75))
}
function show(x, absolute) {
	return absolute ? sprintf("%+.3g", x) : sprintf("%+.1f%%", 100 * x)
}
function abs(x) { return x < 0 ? -x : x }

END {
	printf "%-16s %-28s %-28s %-19s %-36s %-11s %s\n", "metric", "parent med [q1, q3]", "change med [q1, q3]", "change better in",
		"per-pair gain med [q1, q3] min", "bound", "verdict"
	for (k = 1; k <= metrics; k++) {
		m = order[k]
		absolute = bound[m] ~ /^\+/
		cnt = 0
		for (i = 1; i <= pairs; i++) {
			if (!(("parent", i, m) in val) || !(("change", i, m) in val)) continue
			p[++cnt] = val["parent", i, m] + 0; c[cnt] = val["change", i, m] + 0
			if (p[cnt] == 0) absolute = 1
		}
		better = 0; worse = 0
		for (i = 1; i <= cnt; i++) {
			g[i] = absolute ? c[i] - p[i] : c[i] / p[i] - 1
			if (dir[m] == "↓" && g[i] != 0) g[i] = -g[i]
			if (g[i] > 0) better++
			if (g[i] < 0) worse++
		}
		limit = bound[m]; sub(/^\+/, "", limit); sub(/ *abs$/, "", limit)
		paired = "-"; verdict = "-"
		if (cnt > 0) {
			sort(g, cnt)
			med = quantile(g, cnt, 0.5)
			paired = show(med, absolute) " [" show(quantile(g, cnt, 0.25), absolute) ", " show(quantile(g, cnt, 0.75), absolute) "] " show(g[1], absolute)
			if (10 * better >= 9 * cnt && med >= claim) verdict = "gain"
			else if (limit != "" && med < -limit) verdict = "regressed"
		}
		printf "%-16s %-28s %-28s %-19s %-36s %-11s %s\n", m, unpaired("parent", m), unpaired("change", m),
			sprintf("%d of %d (worse %d)", better, cnt, worse), paired, bound[m] == "" ? "-" : bound[m], verdict
	}
	marked = ""
	for (i = 1; i <= pairs; i++) {
		moved = 0
		for (s = 0; s < 2; s++) {
			side = s ? "change" : "parent"
			if ((side, i, "load_before") in load && (side, i, "load_after") in load)
				moved = moved || abs(load[side, i, "load_after"] - load[side, i, "load_before"]) > 1
		}
		if (moved) marked = marked " " i
	}
	printf "claim %g; %s\n", claim, marked == "" ? "load moved by less than one core in every pair" : "load moved by more than one core in pair(s):" marked
}
