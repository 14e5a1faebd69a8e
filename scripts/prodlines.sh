#!/usr/bin/env bash
# Prints the production Go line count ROADMAP.md tracks: every non-test
# .go file outside perfbench/, testdata/ and dot directories.
set -euo pipefail
cd "$(dirname "$0")/.."

find . \( -path ./perfbench -o -path ./testdata -o -path './.?*' \) -prune -o \
	-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
