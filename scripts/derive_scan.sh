#!/usr/bin/env bash
# Lists the serde trait impls of the workspace crates that no non-test code
# needs, letting the compiler decide.
#
#   scripts/derive_scan.sh       # exit 1 if an impl can go and the code still builds
#
# Candidates: every `Serialize` or `Deserialize` in a `#[derive(...)]` list
# (a list may span lines) and every hand-written `impl ... Serialize for`,
# `impl ... Deserialize for` or `impl ... MapKey for` block in crates/*/src
# and src, up to each file's first `#[cfg(test)]`. For each candidate in
# turn, the scan removes that one trait from a copy of the tree and runs
#
#   cargo check --offline --workspace --lib --bins --examples
#   cargo check --offline --manifest-path perfbench/Cargo.toml
#
# If both still build, no library, binary, example or perfbench code needs
# the impl, and the scan names its file, type and trait and fails. There is
# no allowlist: an impl stays only with a non-test consumer. Removing an
# impl can leave the impls only it needed (those of its field types) unused,
# so after deleting what the scan names, run it again.
#
# The copy lives under target/derive-scan/ (DERIVE_SCAN_DIR overrides it),
# with its own cargo target directories, so the repository's files,
# perfbench/Cargo.lock included, are never touched. Only the files that
# changed since the last run are copied again, so a second run reuses the
# first one's build. scripts/derive_scan_selftest.sh checks the scan on a
# fixture crate.
set -euo pipefail
shopt -s globstar nullglob

cd "$(dirname "$0")/.."
root=$PWD
dir=${DERIVE_SCAN_DIR:-$root/target/derive-scan}
tree=$dir/tree
mkdir -p "$tree"
# Lints stay warnings, so an import that a removal leaves unused never
# decides the outcome.
export RUSTFLAGS="--cap-lints=warn"
export CARGO_TERM_COLOR=never

# Brings the copy up to date: a changed file is copied with a fresh mtime
# (so cargo rebuilds it), an unchanged one keeps its mtime, and a file that
# is gone from the tree is deleted from the copy.
sync_copy() {
    (find . \( -path ./target -o -path ./.git -o -path ./perfbench/target \
        -o -path ./.bench_build \) -prune -o -type f -print | sort) > "$dir/files"
    (cd "$tree" && find . -type f -print | sort) > "$dir/copied"
    comm -13 "$dir/files" "$dir/copied" | (cd "$tree" && xargs -r -d '\n' rm -f --)
    local f
    while IFS= read -r f; do
        if ! cmp -s "$f" "$tree/$f"; then
            mkdir -p "$tree/$(dirname "$f")"
            cp "$f" "$tree/$f"
        fi
    done < "$dir/files"
}

# Succeeds when the copy builds as the workspace and as perfbench.
builds() {
    (cd "$tree" && CARGO_TARGET_DIR="$dir/target" \
        cargo check --offline -q --workspace --lib --bins --examples) > "$dir/log" 2>&1 || return 1
    if [ -f "$tree/perfbench/Cargo.toml" ]; then
        (cd "$tree/perfbench" && CARGO_TARGET_DIR="$dir/target-perfbench" \
            cargo check --offline -q) >> "$dir/log" 2>&1 || return 1
    fi
}

# Prints FILE<TAB>FIRST<TAB>LAST<TAB>KIND<TAB>TYPE<TAB>TRAIT for every
# candidate: KIND is `derive` (FIRST..LAST is the attribute) or `impl`
# (FIRST..LAST is the whole block).
candidates() {
    local files=(crates/*/src/**/*.rs src/**/*.rs)
    [ "${#files[@]}" -gt 0 ] || return 0
    awk '
        FNR == 1 { skip = 0; inderive = 0; inimpl = 0; pending = 0 }
        skip { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; next }
        # The item a finished derive list belongs to.
        pending && !/^[[:space:]]*\/\// && match($0, /(struct|enum)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) {
            split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/)
            for (i = 1; i <= ntraits; i++)
                printf "%s\t%d\t%d\tderive\t%s\t%s\n", FILENAME, first, last, w[2], traits[i]
            pending = 0
        }
        !inderive && !inimpl && /^[[:space:]]*#\[derive\(/ { inderive = 1; first = FNR; body = "" }
        inderive {
            body = body " " $0
            if (index($0, ")]")) {
                inderive = 0; last = FNR; ntraits = 0
                gsub(/[(),\]]/, " ", body)
                n = split(body, tok, /[[:space:]]+/)
                for (i = 1; i <= n; i++) {
                    t = tok[i]; sub(/^serde::/, "", t)
                    if (t == "Serialize" || t == "Deserialize") traits[++ntraits] = t
                }
                pending = ntraits > 0
            }
            next
        }
        !inimpl && /^[[:space:]]*impl[[:space:]<]/ &&
            match($0, /(serde::)?(Serialize|Deserialize|MapKey)[[:space:]]+for[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) {
            split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/)
            trait = w[1]; sub(/^serde::/, "", trait)
            inimpl = 1; first = FNR; depth = 0; opened = 0; type = w[3]
        }
        inimpl {
            o = gsub(/\{/, "{"); c = gsub(/\}/, "}")
            depth += o - c
            if (o) opened = 1
            if (opened && depth <= 0) {
                printf "%s\t%d\t%d\timpl\t%s\t%s\n", FILENAME, first, FNR, type, trait
                inimpl = 0
            }
        }
    ' "${files[@]}"
}

# Removes one candidate from the copy of FILE.
remove() {
    local file=$1 first=$2 last=$3 kind=$4 trait=$5
    if [ "$kind" = impl ]; then
        sed -i "${first},${last}d" "$tree/$file"
    else
        sed -i -E "${first},${last}{
            s/,[[:space:]]*(serde::)?\\b${trait}\\b//;t
            s/\\b(serde::)?${trait}\\b[[:space:]]*,?[[:space:]]*//
        }" "$tree/$file"
    fi
}

sync_copy
if ! builds; then
    echo "derive_scan: the unmodified copy does not build:" >&2
    cat "$dir/log" >&2
    exit 2
fi

mapfile -t found < <(candidates)
unused=0
for c in "${found[@]}"; do
    IFS=$'\t' read -r file first last kind type trait <<< "$c"
    remove "$file" "$first" "$last" "$kind" "$trait"
    if builds; then
        echo "$file: $type: $trait has no non-test consumer (the code builds without it)"
        unused=$((unused + 1))
    fi
    # A fresh copy, so the next check rebuilds this file's crate.
    cp "$file" "$tree/$file"
done

echo "derive_scan: ${#found[@]} serde impls checked, $unused without a non-test consumer"
[ "$unused" -eq 0 ]
