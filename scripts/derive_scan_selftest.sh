#!/usr/bin/env bash
# Checks scripts/derive_scan.sh on the fixture crate under
# scripts/derive_scan_fixture/: its binary serialises `Report` and never
# `Unread`, so the scan must name `Unread`'s `Serialize` and nothing else.
#
#   scripts/derive_scan_selftest.sh     # exit 1 if any expectation fails
#
# Each case copies the fixture, the vendored serde shim it builds against
# and the scan into a temporary directory and runs the scan there; the
# scan's own copy and build live under target/derive-scan/selftest/.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export DERIVE_SCAN_DIR=$PWD/target/derive-scan/selftest
failed=0

# Scans the fixture after running the given sed script on its main.rs;
# sets $out and $status.
scan() {
    rm -rf "$work/tree"
    mkdir -p "$work/tree/scripts" "$work/tree/vendor"
    cp -R scripts/derive_scan_fixture/. "$work/tree/"
    cp -R vendor/serde vendor/serde_derive "$work/tree/vendor/"
    cp scripts/derive_scan.sh "$work/tree/scripts/"
    sed -i -e "$1" "$work/tree/src/main.rs"
    status=0
    out=$("$work/tree/scripts/derive_scan.sh" 2>&1) || status=$?
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
reported() { grep -q "^src/main.rs: $1: Serialize has no non-test consumer" <<< "$out"; }
kept() { ! reported "$1"; }
reports() { [ "$(grep -c "has no non-test consumer" <<< "$out")" -eq "$1" ]; }
fails() { [ "$status" -eq 1 ]; }
passes() { [ "$status" -eq 0 ]; }

scan ""
expect "the unused derive of a multi-line list is reported" reported Unread
expect "the derive main serialises is kept" kept Report
expect "exactly one derive is reported" reports 1
expect "an unused derive fails the scan" fails

scan "/^    Serialize,$/d"
expect "the scan passes once the unused derive is gone" passes
expect "nothing is reported then" reports 0

if [ "$failed" -ne 0 ]; then
    echo "derive_scan self-test failed; last scan output:" >&2
    echo "$out" >&2
    exit 1
fi
echo "derive_scan self-test: all expectations hold"
