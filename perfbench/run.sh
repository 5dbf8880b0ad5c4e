#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload small-mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache and
# config, binary, FileStore disk images, span dumps) goes under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
