#!/usr/bin/env bash
# Builds the benchmark and the dwarfserve binary it drives from the source
# tree this script sits in, then runs the benchmark with the given flags:
#
#   bash perfbench/run.sh --workload sweep_cold --seed 1 --seconds 20 --trace 0
#
# Every build artefact, the Go build cache and the benchmark's scratch files
# stay under .bench_build/ at the root of the tree.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local CGO_ENABLED=0

cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
go build -o "$out/dwarfserve" opendwarfs/cmd/dwarfserve >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
