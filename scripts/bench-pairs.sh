#!/usr/bin/env bash
# Alternating parent/change pairs of the repository benchmark (BENCHMARK.json),
# the procedure a performance claim in this repository rests on:
#
#   scripts/bench-pairs.sh BASE WORKLOAD [N] [SECONDS]      (make bench-pairs)
#
# BASE is any commit-ish; the change is the checkout this script lives in,
# uncommitted edits included. BASE is exported with `git archive` into a
# directory of its own (nothing is registered in .git), each side builds its
# own benchmark through its own benchmark/run.sh, and the two run alternately —
# parent first on odd pairs, change first on even ones — with pair i using
# seed i on both sides. It then prints `benchmark -compare` over all runs
# (medians against the bound), each side's quartiles, and how many pairs the
# change won, per end-to-end metric. Results stay in $OUT (default: a fresh
# temporary directory). Needs jq.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 BASE WORKLOAD [N=10] [SECONDS=run_seconds]" >&2
	exit 2
fi
command -v jq >/dev/null || { echo "$0: jq not found" >&2; exit 2; }

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
base=$1 workload=$2 n=${3:-10}
seconds=${4:-$(jq -r .run_seconds "$root/BENCHMARK.json")}
out=${OUT:-$(mktemp -d)}
mkdir -p "$out/base"

git -C "$root" archive "$base" | tar -x -C "$out/base"

run() { # side dir pair
	echo "pair $3/$n: $1" >&2
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" \
		--seconds "$seconds" --trace 0 -out "$out/$1_$3.json") >"$out/$1_$3.log" 2>&1 ||
		echo "pair $3: $1 exited non-zero, see $out/$1_$3.log" >&2
}

for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		run a "$out/base" "$i"
		run b "$root" "$i"
	else
		run b "$root" "$i"
		run a "$out/base" "$i"
	fi
done

# One document per side, one set per run: the shape -compare reads.
for side in a b; do
	jq -s '.[0] + {sets: (map(.sets) | add)}' "$out/${side}"_*.json >"$out/$side.json"
done
echo
echo "a = $base, b = change; $n pairs of $workload, $seconds s each"
"$root/.bench_build/jmsbench" -compare "$out/a.json" "$out/b.json" | awk -v w="$workload" 'NR == 1 || $1 == w'

echo
printf '%-22s %12s %12s %12s   %12s %12s %12s   %s\n' metric a_q1 a_median a_q3 b_q1 b_median b_q3 'b wins'
jq -r --slurpfile a "$out/a.json" --slurpfile b "$out/b.json" --arg w "$workload" '
	def vals($d; $m): [$d.sets[][] | select(.workload == $w) | .metrics[$m].value];
	def q($v; $p): ($v | sort) as $s | (($s | length) - 1) * $p
		| $s[floor] + ($s[ceil] - $s[floor]) * (. - floor);
	.end_to_end[] | .name as $m | (.better == "higher") as $up
	| vals($a[0]; $m) as $va | vals($b[0]; $m) as $vb
	| ([range(0; [($va | length), ($vb | length)] | min)
		| select(if $up then $vb[.] > $va[.] else $vb[.] < $va[.] end)] | length) as $wins
	| [$m, q($va; .25), q($va; .5), q($va; .75), q($vb; .25), q($vb; .5), q($vb; .75),
		"\($wins)/\($va | length)"] | @tsv' "$root/BENCHMARK.json" |
	awk -F'\t' '{ printf "%-22s %12.4f %12.4f %12.4f   %12.4f %12.4f %12.4f   %s\n", $1, $2, $3, $4, $5, $6, $7, $8 }'

for side in a b; do
	jq -r --arg w "$workload" --arg s "$side" '[.sets[][] | select(.workload == $w)] |
		"\($s): failed operations: \(map(.failed) | add) of \(map(.attempted) | add) attempted"' "$out/$side.json"
done
echo "results in $out"
