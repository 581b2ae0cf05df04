#!/usr/bin/env bash
# Prints the non-test Go line count of the tracked tree: every *.go file
# except tests, the perfbench module and testdata fixtures. It reports
# only; there is no threshold.
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files -z '*.go' |
	grep -zv -e '_test\.go$' -e '^perfbench/' -e '/testdata/' |
	xargs -0 cat | wc -l
