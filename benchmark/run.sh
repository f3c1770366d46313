#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/fun3d-benchmark" .)
cd "$root"
exec "$out/fun3d-benchmark" "$@"
