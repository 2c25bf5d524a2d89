#!/usr/bin/env bash
# A/B comparison of the end-to-end benchmark: a base revision against the
# working tree, in alternating pairs.
#
#   scripts/perf_ab.sh BASE_REV WORKLOAD PAIRS SECONDS [FIRST_SEED]
#
# Exports BASE_REV (`git archive`) to target/perf-ab/base-src and the
# working tree (uncommitted changes and untracked files that are not ignored
# included) to target/perf-ab/head-src, and builds perfbench from each copy
# into target/perf-ab/base-build and target/perf-ab/head-build. Both sides'
# sources and binaries thus sit at paths of equal length: a longer path
# alone can move glibc's heap layout and so peak RSS. Then runs PAIRS
# pairs of `--trace 0` runs of SECONDS each; pair i (from 1) uses seed
# FIRST_SEED + i - 1 (FIRST_SEED defaults to 1) on both sides, so a claim
# can be re-checked on seeds not used while developing, and the side that
# goes first alternates from pair to pair so a drift in host speed does not
# favour either. Prints every run's metrics, then per metric each side's
# first quartile, median and third quartile (linear interpolation), the
# number of pairs the working tree won (better in the direction
# BENCHMARK.json gives; ties are not wins) and a verdict:
#   gain holds          the working tree won at least 90% of the pairs and
#                       its median is better than the base's by more than
#                       the base's interquartile range;
#   worse beyond bound  its median is worse than the base's by more than the
#                       metric's relative bound in BENCHMARK.json (end-to-end
#                       metrics only; the others have no bound);
#   -                   neither.
# A run whose result line is not `"correct": true` is reported and left out
# of the statistics and the pairs; the failed/attempted count of each side
# is printed under the table.
#
# The environment passes through to both sides, e.g.
#   MALLOC_MMAP_THRESHOLD_=131072 scripts/perf_ab.sh HEAD~1 metropolis_churn 4 10
# Nothing under perfbench/, no tracked file and nothing under .git is
# written.
set -euo pipefail

if [ $# -ne 4 ] && [ $# -ne 5 ]; then
    echo "usage: $0 BASE_REV WORKLOAD PAIRS SECONDS [FIRST_SEED]" >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=$3
seconds=$4
first_seed=${5:-1}

root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "${base_rev}^{commit}")
ab="$root/target/perf-ab"
base_src="$ab/base-src"
head_src="$ab/head-src"

cleanup() {
    rm -rf "$base_src" "$head_src"
}
trap cleanup EXIT
cleanup
mkdir -p "$base_src" "$head_src"
git archive "$base_sha" | tar -x -C "$base_src"
# Every file git would commit from the working tree: tracked ones not
# deleted, and untracked ones not ignored.
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' file; do
        if [ -e "$file" ] || [ -L "$file" ]; then
            printf '%s\0' "$file"
        fi
    done | tar --null -T - -cf - | tar -x -C "$head_src"

build() { # SOURCE_ROOT TARGET_DIR
    cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml" --target-dir "$2"
}
echo "building perfbench at ${base_rev} (${base_sha:0:12}) and at the working tree" >&2
build "$base_src" "$ab/base-build"
build "$head_src" "$ab/head-build"
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

# metric -> its relative bound in BENCHMARK.json, or nothing if it has none.
bound_of() {
    grep "\"name\": \"$1\"" BENCHMARK.json | sed -n 's/.*"bound": *\([0-9.]*\).*/\1/p'
}

results="$ab/results.tsv"
: >"$results"
declare -A attempted=([base]=0 [head]=0) failed=([base]=0 [head]=0)
run() { # SIDE BIN PAIR
    local out
    attempted[$1]=$((attempted[$1] + 1))
    out=$("$2" --workload "$workload" --seed $((first_seed + $3 - 1)) --seconds "$seconds" \
        --trace 0 2>/dev/null | tail -n 1) || true
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

quartiles() { # reads numbers, one a line; prints "Q1 MEDIAN Q3"
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 0) { print "nan nan nan"; exit }
        split("0.25 0.5 0.75", q, " ")
        for (i = 1; i <= 3; i++) {
            h = (NR - 1) * q[i] + 1; lo = int(h)
            x = (lo < NR) ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[lo]
            printf "%s%.10g", (i > 1 ? " " : ""), x
        }
        print ""
    }'
}

echo
echo "${workload}: ${pairs} pairs of ${seconds} s (seeds ${first_seed}..$((first_seed + pairs - 1))), base ${base_rev} (${base_sha:0:12}) vs working tree"
printf '%-18s %32s %32s %8s %6s  %s\n' metric "base Q1 / median / Q3" \
    "head Q1 / median / Q3" change won verdict
for metric in $(cut -f3 "$results" | awk '!seen[$0]++'); do
    read -r base_q1 base_median base_q3 < <(awk -F'\t' -v m="$metric" \
        '$1 == "base" && $3 == m { print $4 }' "$results" | quartiles)
    read -r head_q1 head_median head_q3 < <(awk -F'\t' -v m="$metric" \
        '$1 == "head" && $3 == m { print $4 }' "$results" | quartiles)
    direction=$(better_of "$metric")
    read -r won paired < <(awk -F'\t' -v m="$metric" -v dir="$direction" '
        $3 == m { v[$1, $2] = $4; seen[$2] = 1 }
        END {
            for (p in seen) {
                if (!((("base", p) in v) && (("head", p) in v))) continue
                n++
                b = v["base", p] + 0; h = v["head", p] + 0
                if ((dir == "higher" && h > b) || (dir == "lower" && h < b)) w++
            }
            print w + 0, n + 0
        }' "$results")
    read -r change verdict < <(awk -v b="$base_median" -v h="$head_median" \
        -v q1="$base_q1" -v q3="$base_q3" -v won="$won" -v n="$paired" \
        -v dir="$direction" -v bound="$(bound_of "$metric")" 'BEGIN {
            spread = q3 - q1
            gain = dir == "higher" ? h - b : b - h
            if (b == 0) change = "n/a"; else change = sprintf("%+.1f%%", 100 * (h - b) / b)
            if (n > 0 && won >= 0.9 * n && gain > spread) verdict = "gain holds"
            else if (bound != "" && -gain > bound * (b < 0 ? -b : b)) verdict = "worse beyond bound"
            else verdict = "-"
            print change, verdict
        }')
    printf '%-18s %10.5g %10.5g %10.5g %10.5g %10.5g %10.5g %8s %6s  %s (%s is better)\n' \
        "$metric" "$base_q1" "$base_median" "$base_q3" "$head_q1" "$head_median" "$head_q3" \
        "$change" "$won/$paired" "$verdict" "$direction"
done
printf '%-18s %32s %32s\n' "failed runs" \
    "${failed[base]}/${attempted[base]}" "${failed[head]}/${attempted[head]}"
