#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against this checkout, by the
# rule of the choosing-metrics guide (section 8): each pair runs both
# sides on one fresh seed, pairs alternate which side goes first, and
# the table gives every end-to-end metric of BENCHMARK.json with each
# side's median and quartiles, the pairs the change won and the pairs
# that tied (a tie counts for neither side) and a verdict:
#
#   gain        the change won at least nine tenths of the pairs and the
#               medians differ by more than the parent's own spread
#               (the distance between its quartiles)
#   REGRESSED   the change's median is worse by more than the metric's bound
#   unresolved  a side's spread is wider than the bound, and the change
#               did not read better on every run
#   same        none of the above
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10]
#
# The parent is exported once (git archive) under .bench_build/, next to
# what bench/run.sh builds, and every run's JSON line is kept under
# .bench_build/pairs/<workload>/ so a table can be checked by hand. The
# run length is BENCHMARK.json's run_seconds, the same on both sides.
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-ref> <workload> [pairs=10]" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-10}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --short "$ref^{commit}")"
parent="$root/.bench_build/parent-$sha"
runs="$root/.bench_build/pairs/$workload"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")"

if [ ! -d "$parent" ]; then
	mkdir -p "$parent.tmp"
	git -C "$root" archive "$sha" | tar -x -C "$parent.tmp"
	mv "$parent.tmp" "$parent"
fi
rm -rf "$runs"
mkdir -p "$runs"

# side <dir> <label> <pair> <seed>: one run, its JSON line kept.
side() {
	(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0) |
		tail -n 1 >"$runs/$2-$3.json"
}
base=$(date +%s)
for i in $(seq 1 "$pairs"); do
	seed=$((base + i))
	if [ $((i % 2)) -eq 1 ]; then
		side "$parent" parent "$i" "$seed"
		side "$root" change "$i" "$seed"
	else
		side "$root" change "$i" "$seed"
		side "$parent" parent "$i" "$seed"
	fi
	echo "pair $i/$pairs (seed $seed) done" >&2
done

# field <file> <name>: metric name's value, or the top-level count name.
field() {
	{ grep -o "\"$2\":{\"value\":[^,}]*" "$1" || grep -o "\"$2\":[0-9]*" "$1"; } | head -n 1 | sed 's/.*://'
}
# quantiles: sorted numbers on stdin, "median q1 q3" out, interpolated
# between order statistics as bench/stats.go does.
quantiles() {
	sort -g | awk '{ v[NR - 1] = $1 }
		function q(p,   pos, lo) {
			pos = p * (NR - 1); lo = int(pos)
			return lo + 1 >= NR ? v[NR - 1] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
		}
		END { printf "%.5g %.5g %.5g", q(0.5), q(0.25), q(0.75) }'
}

echo "workload $workload: $pairs pairs of ${seconds}s runs, parent $sha against $(git -C "$root" describe --always --dirty)"
for s in parent change; do
	attempted=0 failed=0
	for f in "$runs/$s"-*.json; do
		attempted=$((attempted + $(field "$f" attempted)))
		failed=$((failed + $(field "$f" failed)))
	done
	echo "$s: $failed of $attempted sorts failed"
done
printf '%-14s %-7s %-32s %-32s %-6s %-5s %s\n' metric better "parent median (q1..q3)" "change median (q1..q3)" won tied verdict
# BENCHMARK.json lists each end-to-end metric as name, unit, better, bound.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); better = $2 }
	on && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }' "$root/BENCHMARK.json" |
	while read -r name better bound; do
		won=0 tied=0
		: >"$runs/parent.$name" >"$runs/change.$name"
		for i in $(seq 1 "$pairs"); do
			a=$(field "$runs/parent-$i.json" "$name") b=$(field "$runs/change-$i.json" "$name")
			echo "$a" >>"$runs/parent.$name"
			echo "$b" >>"$runs/change.$name"
			if [ "$a" = "$b" ]; then
				tied=$((tied + 1))
			else
				won=$((won + $(awk -v a="$a" -v b="$b" -v hi="$better" 'BEGIN { print ((b > a) == (hi == "higher")) ? 1 : 0 }')))
			fi
		done
		read -r am a1 a3 <<<"$(quantiles <"$runs/parent.$name")"
		read -r bm b1 b3 <<<"$(quantiles <"$runs/change.$name")"
		# Every run of the change better than every run of the parent?
		if [ "$better" = higher ]; then
			worst=$(sort -g "$runs/change.$name" | head -n 1) best=$(sort -g "$runs/parent.$name" | tail -n 1)
		else
			worst=$(sort -g "$runs/change.$name" | tail -n 1) best=$(sort -g "$runs/parent.$name" | head -n 1)
		fi
		verdict=$(awk -v am="$am" -v a1="$a1" -v a3="$a3" -v bm="$bm" -v b1="$b1" -v b3="$b3" \
			-v won="$won" -v n="$pairs" -v bound="$bound" -v hi="$better" -v worst="$worst" -v best="$best" 'BEGIN {
			abs = am < 0 ? -am : am
			worse = abs ? (bm - am) / abs : 0; if (hi == "higher") worse = -worse
			clear = hi == "higher" ? worst > best : worst < best
			diff = bm - am; if (diff < 0) diff = -diff
			wide = abs && bm && ((a3 - a1) / abs > bound || (b3 - b1) / (bm < 0 ? -bm : bm) > bound)
			if (won * 10 >= n * 9 && diff > a3 - a1) print "gain"
			else if (wide && !clear) print "unresolved"
			else if (worse > bound) print "REGRESSED"
			else print "same" }')
		printf '%-14s %-7s %-32s %-32s %-6s %-5s %s\n' "$name" "$better" "$am ($a1..$a3)" "$bm ($b1..$b3)" "$won/$pairs" "$tied" "$verdict"
	done
