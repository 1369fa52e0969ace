#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload preempt-8k --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, module cache,
# temporary files, the go command's own config) stays under
# .bench_build/ in the working directory. Without the pjs module one
# directory up the build fails and the script exits non-zero before
# printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
