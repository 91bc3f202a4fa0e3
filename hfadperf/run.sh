#!/usr/bin/env bash
# Builds the hFAD benchmark from the sources of the checkout it sits in
# and runs it with the given arguments, for example:
#
#   bash hfadperf/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays under
# .bench_build at the checkout root. A failed build exits non-zero without
# printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off \
	GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd "$here" && go build -o "$out/hfadperf" .) >&2
cd "$root"
exec "$out/hfadperf" --trace-dir "$out/traces" "$@"
