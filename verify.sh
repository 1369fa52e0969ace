#!/bin/sh
# Tier-1 verification gate. CI runs exactly this; run it locally before
# pushing. The pjslint step enforces the determinism invariants
# (`go run ./cmd/pjslint -list` names every check; see DESIGN.md,
# "Determinism invariants & static analysis"); the -race test run
# includes the double-run audit-log determinism regression for every
# scheduler in the registry.
set -eu

echo '>> go vet ./...'
go vet ./...
echo '>> go run ./cmd/pjslint ./...'
go run ./cmd/pjslint ./...
echo '>> go build ./...'
go build ./...
echo '>> go test -race ./...'
go test -race ./...
echo 'verify: ok'
