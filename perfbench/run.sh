#!/usr/bin/env bash
# Builds confanon, confportal and the perfbench harness from the source
# tree this script sits in, then runs one benchmark workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload cli-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, the binaries and the per-run
# scratch directory (removed when the run ends).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export XDG_CONFIG_HOME="$out/config"

# With telemetry on (the default is "local"), the go command forks a
# detached sidecar that outlives it; switching it off keeps every process
# the build starts a child the build waits for.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/confanon" ./cmd/confanon >&2
go build -o "$out/bin/confportal" ./cmd/confportal >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
