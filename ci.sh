#!/bin/sh
# Tier-1 gate: formatting, build, vet, and the full test suite under the
# race detector (the sweep engine runs experiment points on a worker
# pool, so every run exercises the concurrent path). -count=1 defeats
# the test cache so CI always runs the suite for real. Run from the
# repository root; .github/workflows/ci.yml calls this script.
set -eux

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go build -tags lvm_notrace ./...
go vet ./...
# Ignored-error gate: stdlib-only checker for the curated call list whose
# dropped errors corrupt log state (full errcheck runs in the CI lint job).
go run ./cmd/errgate .
go test -race -count=1 ./...
# The benchmark driver is a module of its own (lvm/lvmdbench, replacing
# lvm with this tree), so the root build never compiles it: vet and
# test it here, or an internal API change breaks it unseen.
(cd lvmdbench && go vet ./... && go test -count=1 ./...)
