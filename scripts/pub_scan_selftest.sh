#!/usr/bin/env bash
# Checks the rules of scripts/pub_scan.sh on the fixture tree under
# scripts/pub_scan_fixture/: crates/demo/src/lib.rs defines the items and
# examples/demo.rs calls some of them.
#
#   scripts/pub_scan_selftest.sh     # exit 1 if any expectation fails
#
# Each case copies the fixture and the scan into a temporary directory,
# writes the allowlist the case names and runs the scan there.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
lib=crates/demo/src/lib.rs
failed=0

# Scans the fixture with the given allowlist lines; sets $out and $status.
scan() {
    rm -rf "$work/tree"
    mkdir -p "$work/tree/scripts"
    cp -R scripts/pub_scan_fixture/. "$work/tree/"
    cp scripts/pub_scan.sh "$work/tree/scripts/"
    printf '%s\n' "$@" > "$work/tree/scripts/pub_scan.allow"
    status=0
    out=$("$work/tree/scripts/pub_scan.sh" 2>&1) || status=$?
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
reported() { grep -q "pub fn $1 has no non-test caller" <<< "$out"; }
kept() { ! reported "$1"; }
fails() { [ "$status" -ne 0 ]; }
passes() { [ "$status" -eq 0 ]; }
stale() { grep -q "stale entry (used, or no longer defined): $lib $1\$" <<< "$out"; }

scan "$lib spare kept on purpose"
expect "a method read only as self.total is reported" reported total
expect "a method called as .bump( is used" kept bump
expect "a method passed as Counter::double is used" kept double
expect "a call that appears only after #[cfg(test)] is reported" reported reset
expect "an allowlisted item is kept" kept spare
expect "an unused item not on the allowlist fails the scan" fails

scan "$lib spare kept on purpose" "$lib total kept on purpose" "$lib reset kept on purpose"
expect "the scan passes once every unused item is allowlisted" passes

scan "$lib spare kept on purpose" "$lib total kept on purpose" "$lib reset kept on purpose" \
    "$lib bump stale: the example calls it"
expect "a stale allowlist entry is named" stale bump
expect "a stale allowlist entry fails the scan" fails

if [ "$failed" -ne 0 ]; then
    echo "pub_scan self-test failed; last scan output:" >&2
    echo "$out" >&2
    exit 1
fi
echo "pub_scan self-test: all expectations hold"
