#!/usr/bin/env bash
# Build the benchmark from source and run it once. Arguments pass
# through, e.g.
#
#   bash perfbench/run.sh --workload minvar-wide --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build at the root of
# the checkout: the Go build cache and the binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
(
  cd "$root/perfbench"
  GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
    XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
    go build -buildvcs=false -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
