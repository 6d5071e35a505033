#!/bin/sh
# verify.sh — the repo's one-command verification gate:
#   build everything, vet everything, run all tests under the race
#   detector (the gen/service concurrency contracts are race tests).
#
# Usage: ./scripts/verify.sh [extra go-test args]
# Run from anywhere; it cds to the module root.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./... $*"
go test -race "$@" ./...

# The Submit/Close shutdown race regressed silently once; keep it pinned
# with an extra repetition beyond the package run above.
echo "==> shutdown stress (Submit vs Close under -race)"
go test -race -run 'TestPoolSubmitCloseStress' -count=2 ./service

# Chaos suite: injected worker panics, reload failures, and latency storms
# must leave the daemon serving (500-then-recover, last-good snapshot,
# 429 + Retry-After shedding). Re-run explicitly under -race so a fault
# regression names itself even when the package run above is filtered.
echo "==> chaos suite (fault injection under -race)"
go test -race -run 'TestChaos|TestBodyCap' -count=1 ./service

# Timed fuzz smoke: 10s of exploration per parser entry point, and for
# the generator's byte scans against the regexps they replaced, on top of
# the seed-corpus replay in the normal test run. Any crasher fails the
# gate and lands in testdata/fuzz/ for triage.
echo "==> fuzz smoke (10s per target)"
go test -run NONE -fuzz 'FuzzParseRule' -fuzztime 10s ./crysl
go test -run NONE -fuzz 'FuzzParseTemplate' -fuzztime 10s ./gen
go test -run NONE -fuzz 'FuzzTextScans' -fuzztime 10s ./gen

# Cluster smoke: 3 in-process nodes behind the client SDK must produce
# byte-identical output to a standalone node for all 13 templates, and an
# unrouted pass must show the daemons forwarding to cache owners
# (forwarded_total > 0, exactly 13 generations cluster-wide). The wire
# contract and the SDK's retry/routing state get an extra explicit pass
# under -race on top of the package run above.
echo "==> cluster smoke (3 nodes, SDK, forwarding)"
go run ./cmd/loadgen -smoke
echo "==> wire/client race pass"
go test -race -count=1 ./wire ./client

# Plan fast-path identity: the precompiled-plan byte splicer must emit
# output byte-identical to the legacy pipeline for all 13 templates — on
# compile, on replay, under renamed requests and package overrides — and
# stay correct when one plan cache is shared across goroutines. The
# reload-storm regression (bounded shared caches across 50 reloads with
# per-reload fingerprints) rides in the same pass.
echo "==> plan byte-identity + reload-storm regression (-race)"
go test -race -count=1 \
    -run 'TestPlanByteIdentity|TestPlanPackageOverrideIdentity|TestPlanFallbacks|TestPlanConcurrentExecution' ./gen
go test -race -count=1 \
    -run 'TestReloadStormKeepsCachesBounded|TestConcurrentReloadAndGenerate' ./service

# Cluster chaos suite: whole-cluster failure drills — node kill/restart
# under live client load (the same loadgen.RunChaos drill and Check the
# benchtables stage below runs), peer-channel partitions via injected
# transport faults, slow peers vs the probe-timeout floor. Zero lost
# requests, byte-identical output, health convergence, goroutines back to
# baseline.
echo "==> cluster chaos suite (kill/restart, partition, slow peer under -race)"
go test -race -run 'TestClusterChaos' -count=1 ./internal/clustertest

# Smoke the daemon benchmark end to end (batch + coalescing tables
# included) without the full measurement repetitions. benchtables exits
# non-zero if subsequent Generator construction costs >= 10% of the first
# (the shared type-check universe stopped being reused) or if a
# warm-uncached request over a resident plan is not plan-served or costs
# more than 1/50 of a full-pipeline miss (the plan fast path stopped
# engaging). It also runs
# the three failure drills, each judged by its result's Check in
# internal/loadgen:
#   node kill (ChaosResult.Check): zero failed requests, zero diverging
#     responses, client retries > 0 (the outage was exercised), recovery
#     to all-healthy within 2x the peer probe interval; the drill also
#     fails unless the restarted node sees its peers healthy and the
#     SDK's breaker for it closes again;
#   warm restart (WarmRestartResult.Check): zero diverging responses
#     across the crash, the corrupt-snapshot leg cold-starts cleanly,
#     first-window hit rate >= 0.5 on the restored node, warm restart
#     <= 5x max(plain restart, 100ms);
#   hedging (HedgeResult.Check): zero failed or diverging requests,
#     hedge wins > 0, zero retry-budget exhaustion, hedged p99 <
#     unhedged p99 against a 300ms slow-but-healthy node.
echo "==> benchtables service smoke (cold-start + plan gates, kill/warm-restart/hedge drills)"
go run ./cmd/benchtables -table service -smoke

# The benchmark program is its own module (cryptbench/go.mod, replacing
# cognicryptgen with this checkout), so "go build ./..." above never
# compiles it. Build and test it here: an API change in service, client,
# wire or templates must not silently break the benchmark, and its tests
# check that BENCHMARK.json lists exactly the benchmark's layer metrics.
echo "==> benchmark program (cryptbench build + tests)"
(cd cryptbench && go test ./...)

echo "==> verify OK"
