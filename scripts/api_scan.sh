#!/usr/bin/env bash
# Lists the public items and serde impls of the workspace crates that no
# non-test code needs, letting the compiler decide.
#
#   scripts/api_scan.sh          # exit 1 if an item or impl has no non-test consumer
#
# Both passes run on one copy of the tree under target/api-scan/
# (API_SCAN_DIR overrides it), which builds when both of
#
#   cargo check --offline --workspace --lib --bins --examples
#   cargo check --offline --manifest-path perfbench/Cargo.toml
#
# succeed, with lints capped at warn. Test code is never compiled, so no
# test, doctest or `#[cfg(test)]` block counts as a consumer.
#
# Item pass. In the copy, every `pub fn`, `pub struct`, `pub enum`,
# `pub trait`, `pub type`, `pub const` and `pub static` in crates/*/src and
# src, up to each file's first `#[cfg(test)]`, carries
# `#[deprecated(note = "<file>:<line>")]` at the start of its line (so no
# line moves), and each `use of deprecated ...: <file>:<line>` warning of
# the two checks names exactly one definition: nothing is matched by name. A warning on a `use`
# line does not count, and neither does a type naming itself inside its own
# top-level `impl` blocks. A definition that no warning names fails the
# scan, unless scripts/api_scan.allow lists it as `<file> <name> <reason>`,
# where <name> is `Type::name` for an item of an `impl` block. An entry
# without a reason, or one whose item is used or gone, fails the scan too.
# Fields and variants are out of scope.
#
# Derive pass. Every `Serialize` or `Deserialize` in a `#[derive(...)]` list
# (a list may span lines) and every hand-written `impl ... Serialize for`,
# `impl ... Deserialize for` or `impl ... MapKey for` block, up to each
# file's first `#[cfg(test)]`, is removed from the copy in turn. If the copy
# still builds, the scan names the file, type and trait and fails. There is
# no allowlist: an impl stays only with a non-test consumer.
#
# Deleting what the scan names can leave other items without a consumer
# (the callees of a deleted method, the impls of a deleted impl's field
# types), so after deleting, run it again. The repository's files,
# perfbench/Cargo.lock included, are never touched, and only the files that
# changed since the last run are copied again, so a second run reuses the
# first one's build. scripts/api_scan_selftest.sh checks the scan on a
# fixture crate.
set -euo pipefail
shopt -s globstar nullglob

cd "$(dirname "$0")/.."
root=$PWD
dir=${API_SCAN_DIR:-$root/target/api-scan}
tree=$dir/tree
allow=scripts/api_scan.allow
# Lints stay warnings, so an import that a removal leaves unused never
# decides the outcome.
export RUSTFLAGS="--cap-lints=warn"
export CARGO_TERM_COLOR=never

defining=(crates/*/src/**/*.rs src/**/*.rs)
calling=("${defining[@]}" examples/**/*.rs perfbench/src/**/*.rs)
rm -rf "$dir/marked"
mkdir -p "$tree" "$dir/marked"
printf '%s\n' "${defining[@]}" | sed 's#/[^/]*$##' | sort -u | (cd "$dir/marked" && xargs -r mkdir -p)

# Writes the marked copy of every defining file under $dir/marked/ and
# prints, for the non-test lines of every calling file,
#   def FILE:LINE KIND NAME   a public item (NAME is Type::name in an impl)
#   use FILE FIRST LAST       a `use` statement
#   impl FILE FIRST LAST TYPE a top-level impl block of TYPE
survey() {
    awk -v defs="${defining[*]}" -v marked="$dir/marked" '
        BEGIN { n = split(defs, d, " "); for (i = 1; i <= n; i++) is_def[d[i]] = 1 }
        FNR == 1 {
            if (out != "") close(out)
            skip = 0; inuse = 0; in_impl = 0; out = is_def[FILENAME] ? marked "/" FILENAME : ""
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
        !skip && !/^[[:space:]]*\/\// {
            if (inuse) {
                if (/;/) { print "use", FILENAME, first, FNR; inuse = 0 }
            } else if (/^[[:space:]]*(pub(\([a-z]+\))? )?use /) {
                first = FNR
                if (/;/) print "use", FILENAME, first, FNR
                else inuse = 1
            }
            if (!in_impl && /^impl[<[:space:]]/) {
                type = $0
                sub(/^impl(<[^>]*>)?[[:space:]]+/, "", type)
                sub(/.*[[:space:]]for[[:space:]]+/, "", type)
                match(type, /^[A-Za-z_][A-Za-z0-9_]*/)
                type = substr(type, RSTART, RLENGTH)
                in_impl = 1; impl_first = FNR; depth = 0; opened = 0
            }
            if (out != "" && match($0, /^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|type|const|static) +[A-Za-z_][A-Za-z0-9_]*/)) {
                n = split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/)
                name = (in_impl && /^[[:space:]]/ ? type "::" : "") w[n]
                print "def", FILENAME ":" FNR, w[n - 1], name
                sub(/^[[:space:]]*/, "&#[deprecated(note = \"" FILENAME ":" FNR "\")] ")
            }
            if (in_impl) {
                o = gsub(/\{/, "{"); c = gsub(/\}/, "}")
                depth += o - c
                if (o) opened = 1
                if (opened && depth <= 0) { print "impl", FILENAME, impl_first, FNR, type; in_impl = 0 }
            }
        }
        out != "" { print > out }
    ' "${calling[@]}"
}

# Brings the copy up to date with the tree, the defining files marked: a
# changed file is copied with a fresh mtime (so cargo rebuilds it), an
# unchanged one keeps its mtime, and a file that is gone from the tree is
# deleted from the copy.
sync_copy() {
    (find . \( -path ./target -o -path ./.git -o -path ./perfbench/target \
        -o -path ./.bench_build \) -prune -o -type f -print | sort) > "$dir/files"
    (cd "$tree" && find . -type f -print | sort) > "$dir/copied"
    comm -13 "$dir/files" "$dir/copied" | (cd "$tree" && xargs -r -d '\n' rm -f --)
    local f
    while IFS= read -r f; do restore "${f#./}"; done < "$dir/files"
}

# Copies FILE (its marked version, if it has one) into the copy when the
# copy differs.
restore() {
    local src=$1
    [ -f "$dir/marked/$1" ] && src=$dir/marked/$1
    if ! cmp -s "$src" "$tree/$1"; then
        mkdir -p "$tree/$(dirname "$1")"
        cp "$src" "$tree/$1"
    fi
}

# Succeeds when the copy builds as the workspace and as perfbench; the
# output of both checks goes to $dir/log.
builds() {
    (cd "$tree" && CARGO_TARGET_DIR="$dir/target" cargo check --offline -q \
        --message-format=short --workspace --lib --bins --examples) > "$dir/log" 2>&1 || return 1
    if [ -f "$tree/perfbench/Cargo.toml" ]; then
        (cd "$tree/perfbench" && CARGO_TARGET_DIR="$dir/target-perfbench" \
            cargo check --offline -q --message-format=short) 2>&1 |
            sed -E 's#^src/#perfbench/src/#' >> "$dir/log"
        [ "${PIPESTATUS[0]}" -eq 0 ] || return 1
    fi
}

# Prints FILE<TAB>FIRST<TAB>LAST<TAB>KIND<TAB>TYPE<TAB>TRAIT for every
# serde candidate: KIND is `derive` (FIRST..LAST is the attribute) or
# `impl` (FIRST..LAST is the whole block).
candidates() {
    [ "${#defining[@]}" -gt 0 ] || return 0
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
    ' "${defining[@]}"
}

# Removes one serde candidate from the copy of FILE.
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

survey > "$dir/survey"
sync_copy
if ! builds; then
    echo "api_scan: the copy does not build:" >&2
    cat "$dir/log" >&2
    exit 2
fi

# Item pass: every definition a counted warning names is used.
status=0
sed -nE "s#^($tree/)?([^:]+):([0-9]+):[0-9]+: warning: use of deprecated .*: ([^ ]+:[0-9]+)\$#warn \\2 \\3 \\4#p" \
    "$dir/log" | sort -u | cat "$dir/survey" - | awk -v allowfile="$allow" '
    BEGIN {
        while ((getline line < allowfile) > 0) {
            if (line ~ /^[[:space:]]*(#|$)/) continue
            n = split(line, f, " ")
            allowed[f[1] " " f[2]] = 1
            if (n < 3) { printf "%s: entry without a reason: %s\n", allowfile, line; bad = 1 }
        }
    }
    $1 == "def" { ndef++; def[ndef] = $2; kind[$2] = $3; name[$2] = $4; next }
    $1 == "use" { nuse++; use_file[nuse] = $2; use_first[nuse] = $3; use_last[nuse] = $4; next }
    $1 == "impl" { nimpl++; impl_file[nimpl] = $2; impl_first[nimpl] = $3; impl_last[nimpl] = $4; impl_type[nimpl] = $5; next }
    $1 == "warn" {
        file = $2; line = $3; what = $4
        for (i = 1; i <= nuse; i++)
            if (use_file[i] == file && use_first[i] <= line && line <= use_last[i]) next
        for (i = 1; i <= nimpl; i++)
            if (impl_file[i] == file && impl_first[i] <= line && line <= impl_last[i] && impl_type[i] == name[what]) next
        used[what] = 1
    }
    END {
        for (i = 1; i <= ndef; i++) {
            split(def[i], at, ":")
            key = at[1] " " name[def[i]]
            if (used[def[i]]) continue
            if (key in allowed) { kept[key] = 1; continue }
            printf "%s: pub %s %s has no non-test caller\n", def[i], kind[def[i]], name[def[i]]
            unused++
        }
        for (key in allowed) if (!(key in kept)) {
            printf "%s: stale entry (used, or no longer defined): %s\n", allowfile, key
            bad = 1
        }
        printf "api_scan: %d public items, %d unused and not allowlisted\n", ndef, unused
        exit (unused > 0 || bad) ? 1 : 0
    }
' || status=1

# Derive pass: each serde impl must be needed for the copy to build.
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
    restore "$file"
done
echo "api_scan: ${#found[@]} serde impls checked, $unused without a non-test consumer"
[ "$unused" -eq 0 ] || status=1
exit $status
