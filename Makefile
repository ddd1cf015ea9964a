GO ?= go
PORT ?= 8080

.PHONY: build test vet race fuzz-smoke loadtest validate-quick bench bench-sweep bench-snapshot bench-compare bench-islands island-smoke fpga-smoke suite-corpus quick full serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the concurrency-bearing packages: the sweep executor, the
# shared metrics cache in core, the GA evaluate workers in moea, the
# job-queue service, the durable store, the sweep client and island
# exchange in dist, the fleet gateway, the HEFT seeding heuristic, the paired chain-solve path
# (relmodel/markov) and the fault-model evaluation counters read by
# /metrics.
race:
	$(GO) vet ./... && $(GO) test -race ./internal/sweep ./internal/core ./internal/moea ./internal/service ./internal/store ./internal/dist ./internal/gateway ./internal/heft ./internal/relmodel ./internal/markov ./internal/faultmodel

# Short continuous-fuzzing pass over the input-parsing surfaces — the TGFF
# text parser, the JobSpec normalizer, the WAL replayer, the gateway
# tenant-config parser, the island migrant wire format and the fault-model
# JSON decoder — plus the sparse chain solver against its dense oracle.
# Each target gets 10s on top of the checked-in corpus under testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzParseText -fuzztime 10s ./internal/tgff
	$(GO) test -run xxx -fuzz FuzzNormalize -fuzztime 10s ./internal/service
	$(GO) test -run xxx -fuzz FuzzWALReplay -fuzztime 10s ./internal/store
	$(GO) test -run xxx -fuzz FuzzParseTenants -fuzztime 10s ./internal/gateway
	$(GO) test -run xxx -fuzz FuzzMigrationDecode -fuzztime 10s ./internal/moea
	$(GO) test -run xxx -fuzz FuzzFaultModelDecode -fuzztime 10s ./internal/faultmodel
	$(GO) test -run xxx -fuzz FuzzAnalyzeMatchesDense -fuzztime 10s ./internal/markov

# SLO load harness: drive an in-process 2-worker fleet through the
# gateway for 30s of deterministic duplicate-heavy traffic and gate on
# admission P99 and zero 5xx responses. The JSON report lands in /tmp so
# the committed BENCH_GW_*.json artifacts stay untouched.
loadtest:
	$(GO) run ./cmd/loadgen -inprocess 2 -duration 30s -rate 20 -seed 1 \
		-profile dedup-heavy -max-p99 2s -max-5xx 0 -out /tmp/loadtest.json

# Quick statistical cross-validation of the analytical models against the
# fault-injection simulator (a reduced-trial version of cmd/validate).
validate-quick:
	$(GO) run ./cmd/validate -trials 2000

bench:
	$(GO) test -bench . -benchmem -benchtime 1x ./...

# One pass over the sweep-engine and per-figure benchmarks (the snapshot
# recorded in CHANGES.md).
bench-sweep:
	$(GO) test -bench 'Sweep|Fig|Table' -benchtime 1x .

# Machine-readable perf snapshot: one pass over the sweep/figure/table
# benchmarks plus the moea selection-path kernels (non-dominated sort,
# archive update, crowding) with -benchmem, converted to JSON by
# cmd/benchsnap. Set BENCH_BASELINE to a prior snapshot (JSON or raw bench
# text) to embed percent deltas per benchmark.
# Both snapshot and gate take best-of-3 per benchmark (-count=3, collapsed
# to the fastest run by benchsnap): preemption and VM CPU steal only ever
# add time, so the minimum is the robust timing estimate. The suite
# benchmarks run one iteration per count (each is ~100ms of real DSE
# work); the microsecond-scale selection kernels need a large fixed
# iteration count on top to be measurable at all.
# BENCH_SNAPSHOT names the output file and has no default, so a run never
# overwrites a committed baseline by accident:
#   make bench-snapshot BENCH_SNAPSHOT=BENCH_PR12.json BENCH_BASELINE=BENCH_PR10.json
BENCH_KERNELS := NonDominatedSort|UpdateArchive|Crowding
BENCH_SUITE_CMD = $(GO) test -run '^$$' -bench 'Sweep|Fig|Table' -benchmem -benchtime 1x -count 3 .
BENCH_KERNEL_CMD = $(GO) test -run '^$$' -bench '$(BENCH_KERNELS)' -benchmem -benchtime 200x -count 3 ./internal/moea
BENCH_SNAPSHOT ?=
BENCH_BASELINE ?=
bench-snapshot:
	@test -n "$(BENCH_SNAPSHOT)" || { echo "bench-snapshot: set BENCH_SNAPSHOT=BENCH_PR<n>.json (the file to write)" >&2; exit 2; }
	{ $(BENCH_SUITE_CMD) && $(BENCH_KERNEL_CMD); } | \
		$(GO) run ./cmd/benchsnap -o $(BENCH_SNAPSHOT) $(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE))

# Regression gate: run the sweep/figure/table/kernel benchmarks fresh and
# fail if any shared benchmark regressed past the thresholds vs the last
# committed snapshot (highest-numbered BENCH_*.json by default). Allocs/op
# is deterministic and carries the tight bound; wall-clock — even as
# best-of-3 — swings with virtualized-CPU phases on shared hosts, so the
# time bound matches the CI shared-runner setting. Tighten with
# BENCH_TIME_PCT on quiet bare-metal boxes.
# Default to the highest-numbered committed snapshot. Plain $(sort) is
# lexical — BENCH_PR10 would sort before BENCH_PR9 — so single-digit and
# multi-digit PR numbers are sorted as separate groups with the longer
# (numerically larger) group winning.
BENCH_COMPARE_BASE ?= $(lastword $(sort $(wildcard BENCH_PR?.json)) $(sort $(wildcard BENCH_PR??.json)))
BENCH_TIME_PCT ?= 35
BENCH_ALLOC_PCT ?= 10
bench-compare:
	{ $(BENCH_SUITE_CMD) && $(BENCH_KERNEL_CMD); } | \
		$(GO) run ./cmd/benchsnap -compare -baseline $(BENCH_COMPARE_BASE) \
			-max-time-pct $(BENCH_TIME_PCT) -max-alloc-pct $(BENCH_ALLOC_PCT)
	$(GO) test -run '^$$' -bench 'Islands' -benchmem -benchtime 1x . | \
		$(GO) run ./cmd/benchsnap -compare -baseline BENCH_ISLANDS_PR8.json \
			-max-time-pct $(BENCH_TIME_PCT) -max-alloc-pct $(BENCH_ALLOC_PCT)

# Island-quality snapshot: the equal-budget hypervolume uplift benchmarks
# (island vs single population on sobel + synthetic), recorded as the
# committed BENCH_ISLANDS_PR8.json artifact. The hv-uplift-% metric is
# deterministic; only the timing columns vary across machines.
BENCH_ISLANDS_SNAPSHOT ?= BENCH_ISLANDS_PR8.json
bench-islands:
	$(GO) test -run '^$$' -bench 'Islands' -benchmem -benchtime 1x . | \
		$(GO) run ./cmd/benchsnap -o $(BENCH_ISLANDS_SNAPSHOT)

# Deterministic island smoke: a quick 2-island experiment run byte-compared
# against the committed golden. Catches any change to the migration
# protocol, RNG stream layout or merge order that would silently break
# cross-version reproducibility.
island-smoke:
	$(GO) run ./cmd/experiments -quick -run fig7 -islands 2 -migration-every 2 \
		-timing=false > /tmp/island-smoke.out
	cmp /tmp/island-smoke.out testdata/island_smoke.golden

# Deterministic fault-model smoke: the ext-fpga extension study (SEU-only
# vs combined transient+permanent vs checkpoint axis on the FPGA family)
# byte-compared against the committed golden front, plus the legacy quick
# suite against the pre-subsystem baseline with every new axis off.
fpga-smoke:
	$(GO) run ./cmd/experiments -quick -run ext-fpga -timing=false > /tmp/fpga-smoke.out
	cmp /tmp/fpga-smoke.out testdata/ext_fpga_quick.golden
	$(GO) test -run 'TestQuickLegacyGolden' ./cmd/experiments

# Regenerate the committed mixed-criticality scenario corpus (graphs, job
# specs and manifest under cmd/tgffgen/testdata/suite) after an intended
# generator or spec-format change.
suite-corpus:
	$(GO) test -run TestSuiteGolden -update-suite ./cmd/tgffgen

# Build and launch the DSE job service on $(PORT).
serve:
	$(GO) build ./cmd/clrearlyd && $(GO) run ./cmd/clrearlyd -addr :$(PORT)

quick:
	$(GO) run ./cmd/experiments -quick

full:
	$(GO) run ./cmd/experiments
