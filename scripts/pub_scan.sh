#!/usr/bin/env bash
# Lists the public items of the library crates that no non-test code uses.
#
#   scripts/pub_scan.sh          # exit 1 if an unused item is not allowlisted
#
# Definitions: every `pub fn`, `pub struct`, `pub enum`, `pub trait`,
# `pub type`, `pub const` and `pub static` in crates/*/src and src. An
# indented `pub fn` inside an `impl` block is a method; every other item is
# top-level. Callers: the non-test code of crates/*/src, src, examples/ and
# perfbench/src. "Non-test" means the lines before a file's first
# `#[cfg(test)]`, minus comment lines (doc comments included) and `use`
# statements, so neither a doctest nor a re-export counts as a caller.
#
# A method counts as used when that code calls it: `.name(`, `.name::<`, or
# a `::name` path (which also covers `Type::name` passed as a value). A field
# read (`self.name`), a struct-literal key (`name:`) or a local of the same
# name is not a call. A top-level item counts as used when its name occurs as
# a whole word in that code more often than it is defined; a type naming
# itself inside its own top-level `impl` blocks does not count. A module
# counts as used when one of its top-level items is named outside its own
# files. The match is by name only, so a method that shares its name with a
# called one (`new`, say) is never reported: the scan errs towards keeping.
# An item that stays on purpose goes in scripts/pub_scan.allow as
# `<file> <name> <reason>`; an entry without a reason, or one whose item is
# used or gone, fails the scan too. scripts/pub_scan_selftest.sh checks
# these rules on a fixture tree.
set -euo pipefail
shopt -s globstar nullglob

cd "$(dirname "$0")/.."
allow=scripts/pub_scan.allow

defining=(crates/*/src/**/*.rs src/**/*.rs)
calling=("${defining[@]}" examples/**/*.rs perfbench/src/**/*.rs)

# Prints FILE<TAB>LINE<TAB>TEXT for the non-test, non-comment, non-`use`
# lines of every file given.
nontest() {
    awk '
        FNR == 1 { skip = 0; inuse = 0 }
        skip { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; next }
        /^[[:space:]]*\/\// { next }
        inuse { if (/;/) inuse = 0; next }
        /^[[:space:]]*(pub(\([a-z]+\))? )?use / { if (!/;/) inuse = 1; next }
        { print FILENAME "\t" FNR "\t" $0 }
    ' "$@"
}

nontest "${calling[@]}" | awk -F'\t' -v defs="${defining[*]}" -v allowfile="$allow" '
    BEGIN {
        n = split(defs, d, " ")
        for (i = 1; i <= n; i++) is_def[d[i]] = 1
        while ((getline line < allowfile) > 0) {
            if (line ~ /^[[:space:]]*(#|$)/) continue
            split(line, f, " ")
            key = f[1] " " f[2]
            allowed[key] = 1
            if (split(line, g, " ") < 3) {
                printf "%s: entry without a reason: %s\n", allowfile, line
                bad = 1
            }
        }
    }
    {
        file = $1
        text = $3
        files[file] = 1
        # Leaving a file, or the closing brace of a top-level impl block,
        # ends the impl.
        if (file != impl_file) { impl_type = ""; in_impl = 0 }
        if (is_def[file] && match(text, /^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|type|const|static) +[A-Za-z_][A-Za-z0-9_]*/)) {
            item = substr(text, RSTART, RLENGTH)
            name = item
            sub(/.* /, "", name)
            kind = substr(item, 1, length(item) - length(name))
            sub(/ +$/, "", kind)
            sub(/.* /, "", kind)
            ndef++
            def_file[ndef] = file; def_line[ndef] = $2; def_name[ndef] = name; def_kind[ndef] = kind
            def_top[ndef] = (text ~ /^pub /)
            def_method[ndef] = (in_impl && kind == "fn" && !def_top[ndef])
            defined[name]++
        }
        if (is_def[file] && text ~ /^pub mod [a-z_0-9]+;/) {
            name = text
            sub(/^pub mod /, "", name)
            sub(/;.*/, "", name)
            dir = file
            if (dir ~ /\/(lib|mod)\.rs$/) sub(/\/[^\/]*$/, "", dir)
            else sub(/\.rs$/, "", dir)
            nmod++
            mod_file[nmod] = file; mod_line[nmod] = $2; mod_name[nmod] = name
            mod_path[nmod] = dir "/" name
        }
        # A type naming itself inside its own top-level impl block (the
        # header, struct literals, its own variants) is not a use.
        if (text ~ /^impl[<[:space:]]/) {
            impl_type = text
            sub(/^impl(<[^>]*>)?[[:space:]]+/, "", impl_type)
            sub(/.*[[:space:]]for[[:space:]]+/, "", impl_type)
            match(impl_type, /^[A-Za-z_][A-Za-z0-9_]*/)
            impl_type = substr(impl_type, RSTART, RLENGTH)
            impl_file = file
            in_impl = 1
            depth = 0
        }
        rest = text
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            if (word == impl_type) continue
            seen[word]++
            seen_in[word, file]++
        }
        # Call-shaped uses: `.name(`, `.name::<` and `::name`.
        rest = text
        while (match(rest, /(\.|::)[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            if (word ~ /^::/) called[substr(word, 3)]++
            else if (rest ~ /^(\(|::<)/) called[substr(word, 2)]++
        }
        if (in_impl) {
            depth += gsub(/{/, "{", text) - gsub(/}/, "}", text)
            if (depth <= 0 && text ~ /}/) { impl_type = ""; in_impl = 0 }
        }
    }
    function report(file, line, what, name, key) {
        key = file " " name
        if (key in allowed) { kept[key] = 1; return }
        printf "%s:%s: pub %s %s has no non-test caller\n", file, line, what, name
        unused++
    }
    END {
        # A method is used when it is called; any other item when its name
        # occurs more often than it is defined.
        for (i = 1; i <= ndef; i++) {
            if (def_method[i]) used = (called[def_name[i]] > 0)
            else used = (seen[def_name[i]] > defined[def_name[i]])
            if (!used) report(def_file[i], def_line[i], def_kind[i], def_name[i])
        }
        # A module is used when one of its top-level items is named outside
        # the files of the module (m.rs, or m/ with its submodules).
        for (j = 1; j <= nmod; j++) {
            path = mod_path[j]
            used = 0
            for (i = 1; i <= ndef && !used; i++) {
                if (!def_top[i] || (def_file[i] != path ".rs" && index(def_file[i], path "/") != 1)) continue
                outside = seen[def_name[i]]
                for (src in files)
                    if (src == path ".rs" || index(src, path "/") == 1) outside -= seen_in[def_name[i], src]
                if (outside > 0) used = 1
            }
            if (!used) report(mod_file[j], mod_line[j], "mod", mod_name[j])
        }
        for (key in allowed) if (!(key in kept)) {
            printf "%s: stale entry (used, or no longer defined): %s\n", allowfile, key
            bad = 1
        }
        printf "pub_scan: %d public items and %d modules, %d unused and not allowlisted\n", ndef, nmod, unused
        exit (unused > 0 || bad) ? 1 : 0
    }
'
