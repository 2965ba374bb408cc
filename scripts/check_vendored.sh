#!/usr/bin/env bash
# Vendored-dependency audit, in two parts:
#
#  1. every compat/ stub builds and passes its own unit tests standalone
#     (its own Cargo.toml, its own target dir), so a stub can never
#     silently grow a dependency on the workspace or on a crates.io
#     package the offline image lacks;
#  2. no manifest in the workspace depends on a crate that is neither a
#     workspace member nor a vendored stub — the allowlist is derived
#     from the directory layout, not maintained by hand.
#
# Usage: scripts/check_vendored.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== compat stubs build and test standalone"
for stub in compat/*/; do
    name="$(basename "$stub")"
    echo "   -> $name"
    cargo test -q \
        --manifest-path "$stub/Cargo.toml" \
        --target-dir target/compat-standalone
done

echo "== dependency allowlist"
allow=""
for d in crates/*/ compat/*/; do
    allow="$allow $(basename "$d")"
done
# Package names that differ from their directory names.
allow="$allow powerprog powerprog-core powerprog-bench"

fail=0
for manifest in Cargo.toml crates/*/Cargo.toml compat/*/Cargo.toml; do
    # Dependency names: lines like `foo = ...` or `[dependencies.foo]`
    # inside any [*dependencies*] section of the manifest.
    deps="$(awk '
        /^\[.*dependencies[^.]*\]$/ { insec = 1; next }
        /^\[.*dependencies\.[A-Za-z0-9_-]+\]$/ {
            gsub(/^\[.*dependencies\.|\]$/, ""); print; insec = 0; next
        }
        /^\[/ { insec = 0; next }
        insec && /^[A-Za-z0-9_-]+[[:space:]]*=/ { print $1 }
    ' "$manifest")"
    for dep in $deps; do
        ok=0
        for a in $allow; do
            if [[ "$dep" == "$a" ]]; then
                ok=1
                break
            fi
        done
        if [[ "$ok" -eq 0 ]]; then
            echo "ERROR: $manifest depends on non-vendored crate '$dep'" >&2
            fail=1
        fi
    done
done

if [[ "$fail" -ne 0 ]]; then
    echo "check_vendored: offline build would break." >&2
    exit 1
fi
echo "check_vendored: all dependencies are workspace members or vendored stubs."
