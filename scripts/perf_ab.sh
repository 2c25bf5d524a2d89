#!/usr/bin/env bash
# A/B comparison of the end-to-end benchmark: a base revision against the
# working tree, in alternating pairs.
#
#   scripts/perf_ab.sh BASE_REV WORKLOAD PAIRS SECONDS
#
# Builds perfbench for BASE_REV in a temporary `git worktree` under
# target/perf-ab/ and for the working tree (uncommitted changes included),
# each into its own target directory under target/perf-ab/. Then runs PAIRS
# pairs of `--trace 0` runs of SECONDS each; pair i uses seed i on both
# sides, and the side that goes first alternates from pair to pair so a
# drift in host speed does not favour either. Prints every run's metrics,
# then each metric's median per side and the number of pairs the working
# tree won (better in the direction BENCHMARK.json gives; ties are not wins).
# A run whose result line is not `"correct": true` is reported and left out
# of the medians and the pairs; the failed/attempted count of each side is
# printed under the table.
#
# The environment passes through to both sides, e.g.
#   MALLOC_MMAP_THRESHOLD_=131072 scripts/perf_ab.sh HEAD~1 metropolis_churn 4 10
# Nothing under perfbench/ and no tracked file is written.
set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: $0 BASE_REV WORKLOAD PAIRS SECONDS" >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=$3
seconds=$4

root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "${base_rev}^{commit}")
ab="$root/target/perf-ab"
worktree="$ab/base-src"
mkdir -p "$ab"

cleanup() {
    git worktree remove --force "$worktree" 2>/dev/null || rm -rf "$worktree"
    git worktree prune
}
trap cleanup EXIT
cleanup
git worktree add --quiet --detach "$worktree" "$base_sha"

build() { # SOURCE_ROOT TARGET_DIR
    cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml" --target-dir "$2"
}
echo "building perfbench at ${base_rev} (${base_sha:0:12}) and at the working tree" >&2
build "$worktree" "$ab/base-build"
build "$root" "$ab/head-build"
base_bin="$ab/base-build/release/perfbench"
head_bin="$ab/head-build/release/perfbench"

# metric -> "higher" | "lower", from BENCHMARK.json's end-to-end list (one
# metric per line there); anything not listed counts as lower-is-better.
better_of() {
    local line
    line=$(grep "\"name\": \"$1\"" BENCHMARK.json | grep '"better"' || true)
    case "$line" in
        *'"better": "higher"'*) echo higher ;;
        *) echo lower ;;
    esac
}

results="$ab/results.tsv"
: >"$results"
declare -A attempted=([base]=0 [head]=0) failed=([base]=0 [head]=0)
run() { # SIDE BIN PAIR
    local out
    attempted[$1]=$((attempted[$1] + 1))
    out=$("$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null |
        tail -n 1) || true
    case "$out" in
        *'"correct": true'*) ;;
        *)
            failed[$1]=$((failed[$1] + 1))
            echo "pair $3 $1: run failed, left out: $out" >&2
            return
            ;;
    esac
    # One `SIDE PAIR METRIC VALUE` row per metric of the result line, and
    # one `pair N SIDE metric=value ...` line on standard output.
    echo "$out" | grep -o '"[a-z_.]*": {"value": [^,}]*' |
        sed 's/"\([a-z_.]*\)": {"value": \(.*\)/\1 \2/' |
        while read -r metric value; do
            printf '%s\t%s\t%s\t%s\n' "$1" "$3" "$metric" "$value" >>"$results"
            printf ' %s=%.6g' "$metric" "$value"
        done | sed "s/^/pair $3 $1:/"
    echo
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run base "$base_bin" "$pair"
        run head "$head_bin" "$pair"
    else
        run head "$head_bin" "$pair"
        run base "$base_bin" "$pair"
    fi
done

median() { # reads numbers, one a line
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 0) { print "nan"; exit }
        if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

echo
echo "${workload}: ${pairs} pairs of ${seconds} s, base ${base_rev} (${base_sha:0:12}) vs working tree"
printf '%-18s %14s %14s %9s %6s\n' metric base head change won
for metric in $(cut -f3 "$results" | awk '!seen[$0]++'); do
    base_median=$(awk -F'\t' -v m="$metric" '$1 == "base" && $3 == m { print $4 }' "$results" | median)
    head_median=$(awk -F'\t' -v m="$metric" '$1 == "head" && $3 == m { print $4 }' "$results" | median)
    direction=$(better_of "$metric")
    won=$(awk -F'\t' -v m="$metric" -v dir="$direction" '
        $3 == m { v[$1, $2] = $4; seen[$2] = 1 }
        END {
            for (p in seen) {
                if (!((("base", p) in v) && (("head", p) in v))) continue
                n++
                b = v["base", p] + 0; h = v["head", p] + 0
                if ((dir == "higher" && h > b) || (dir == "lower" && h < b)) w++
            }
            printf "%d/%d", w, n
        }' "$results")
    change=$(awk -v b="$base_median" -v h="$head_median" \
        'BEGIN { if (b == 0) print "n/a"; else printf "%+.1f%%", 100 * (h - b) / b }')
    printf '%-18s %14.6g %14.6g %9s %6s  (%s is better)\n' \
        "$metric" "$base_median" "$head_median" "$change" "$won" "$direction"
done
printf '%-18s %14s %14s\n' "failed runs" \
    "${failed[base]}/${attempted[base]}" "${failed[head]}/${attempted[head]}"
