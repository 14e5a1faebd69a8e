#!/usr/bin/env bash
# Pre-merge gate: vet, build, and race-test the internal packages, then
# the full test suite. Run before every merge (see README).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== go test -race -short ./..."
go test -race -short ./...
echo "== go test ./..."
go test ./...
echo "check.sh: all green"
echo "== production Go lines (tracked in ROADMAP.md, not a gate): $(scripts/prodlines.sh)"
