#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload fig7a --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary) goes under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOTELEMETRY=off GOFLAGS="-mod=readonly -buildvcs=false"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if [ -e .git ] && command -v git >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
