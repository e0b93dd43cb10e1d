#!/usr/bin/env bash
# Builds lossyckptd and the perfbench program from this checkout, then runs
# perfbench with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload nicam-lossy --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: Go's build cache, both binaries and the daemon's
# store directories. The build is not part of any reported time.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="/usr/local/go/bin:$PATH"
fi
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0
mkdir -p "$out/bin" "$out/tmp"

go build -o "$out/bin/lossyckptd" ./cmd/lossyckptd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/lossyckptd" -workdir "$out/run" "$@"
