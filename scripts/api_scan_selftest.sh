#!/usr/bin/env bash
# Checks scripts/api_scan.sh on the fixture crate under
# scripts/api_scan_fixture/: its binary calls `Report::label` and serialises
# `Report`, so the scan must name `Unread::label` (a same-named method that
# only tests call), `spare` and `Unread`'s `Serialize`, keep the allowlisted
# `Report::reference`, and name a stale allowlist entry.
#
#   scripts/api_scan_selftest.sh     # exit 1 if any expectation fails
#
# Each case copies the fixture, the vendored serde shim it builds against
# and the scan into a temporary directory, writes the case's allowlist and
# runs the scan there; the scan's own copy and build live under
# target/api-scan/selftest/.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export API_SCAN_DIR=$PWD/target/api-scan/selftest
lib=src/lib.rs
reference="$lib Report::reference the tests' reference"
failed=0

# scan SED ALLOW...: scans the fixture after running SED on its lib.rs, with
# the ALLOW lines as the allowlist; sets $out and $status.
scan() {
    rm -rf "$work/tree"
    mkdir -p "$work/tree/scripts" "$work/tree/vendor"
    cp -R scripts/api_scan_fixture/. "$work/tree/"
    cp -R vendor/serde vendor/serde_derive "$work/tree/vendor/"
    cp scripts/api_scan.sh "$work/tree/scripts/"
    sed -i -e "$1" "$work/tree/$lib"
    shift
    printf '%s\n' "$@" > "$work/tree/scripts/api_scan.allow"
    status=0
    out=$("$work/tree/scripts/api_scan.sh" 2>&1) || status=$?
}

# expect DESCRIPTION COMMAND...: the command must succeed.
expect() {
    local what=$1
    shift
    if "$@"; then
        echo "ok: $what"
    else
        echo "FAILED: $what"
        failed=1
    fi
}
unused() { grep -q "^$lib:[0-9]*: pub fn $1 has no non-test caller$" <<< "$out"; }
used() { ! unused "$1"; }
unserialised() { grep -q "^$lib: $1: Serialize has no non-test consumer" <<< "$out"; }
serialised() { ! unserialised "$1"; }
stale() { grep -q "stale entry (used, or no longer defined): $lib $1\$" <<< "$out"; }
reports() { [ "$(grep -c "has no non-test" <<< "$out")" -eq "$1" ]; }
fails() { [ "$status" -eq 1 ]; }
passes() { [ "$status" -eq 0 ]; }

scan "" "$reference" "$lib Report::label stale: main calls it"
expect "Unread::label is reported although main calls Report::label" unused Unread::label
expect "Report::label, which main calls, is used" used Report::label
expect "a pub fn nobody calls is reported" unused spare
expect "an allowlisted reference is kept" used Report::reference
expect "a stale allowlist entry is named" stale Report::label
expect "the unused derive of a multi-line list is reported" unserialised Unread
expect "the derive main serialises is kept" serialised Report
expect "exactly those three are reported" reports 3
expect "the scan fails" fails

scan "/Shares its name/,/^    }/d; /Called by nothing/,/pub fn spare/d; /^    Serialize,\$/d" "$reference"
expect "the scan passes once they are gone" passes
expect "nothing is reported then" reports 0

if [ "$failed" -ne 0 ]; then
    echo "api_scan self-test failed; last scan output:" >&2
    echo "$out" >&2
    exit 1
fi
echo "api_scan self-test: all expectations hold"
