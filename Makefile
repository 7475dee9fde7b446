# Tier-1 CI gate (ROADMAP.md): `make ci` must pass on every PR.
#
#   vet          go vet + a gofmt -l cleanliness check over everything
#   build        compile everything
#   test         full unit/differential suite
#   race         the concurrency-heavy packages under the race detector
#                (the pipeline, the PALM BSP stages — including the
#                kernel-ablation matrix, all 2^4 sorted-batch kernel ×
#                layout flag combos differentially vs the oracle — the
#                sharded engine, the facade stream and service hammers,
#                the WAL syncer, the batcher close/submit races, and the
#                metrics registry's sharded counters under snapshot vs
#                live Serve traffic, and the TCP server front end's
#                connection/drain machinery)
#   race-scan    the scan/RMW execution paths (define-overlay engine
#                batches, the pipeline's extended path, shard scan
#                split/merge, facade scans) under the race detector
#   race-tiered  the cold-range tier store (DESIGN.md §14) under the
#                race detector: the run/residency unit tests, the tier
#                engine's demotion/promotion/fault paths, and the
#                facade-level tiered integration tests (checkpoint,
#                snapshot portability, lost-tier-dir recovery)
#   fuzz-smoke   10s runs of the shard differential fuzzer (the
#                sharded/serial equivalence property of DESIGN.md §6,
#                including scan/RMW and dense-layout arms), the
#                autoshard differential fuzzer (random ops with the
#                resharding controller stepping between batches vs the
#                serial oracle, DESIGN.md §13), the
#                range/RMW differential fuzzer (every engine mode and
#                layout vs the oracle on batches mixing all five ops,
#                DESIGN.md §11), the crash-recovery fuzzer (the
#                durability property of DESIGN.md §7: power cut at an
#                arbitrary byte, then recover to an acked whole-batch
#                prefix — with gapped and dense pre-crash configs and
#                RMW in the workload), and the dual-layout tree fuzzer
#                (gapped and dense trees in lockstep vs a map oracle,
#                DESIGN.md §10), the wire-protocol frame decoder
#                (canonical re-encode property, DESIGN.md §12), and the
#                tiered differential fuzzer (tiered facade vs the plain
#                facade and a map oracle with random demotion budgets,
#                DESIGN.md §14; the crash-recovery fuzzer also carries
#                a tiered pre-crash arm)
#   bench-smoke  one-iteration compile-and-run of the pipeline,
#                durability, kernel and layout benchmarks (catches
#                bit-rot in the benchmarks without paying for a
#                measurement)

GO ?= go

.PHONY: ci vet build test race race-kernels race-layout race-scan race-server race-autoshard race-tiered fuzz-smoke bench-smoke bench

ci: vet build test race race-kernels race-layout race-scan race-server race-autoshard race-tiered fuzz-smoke bench-smoke

vet:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core ./internal/palm ./internal/shard ./internal/wal ./internal/batcher ./internal/metrics ./internal/server ./qtrans

# The sorted-batch kernel ablation matrix (all 2^4 flag combos, small
# differential workloads vs the oracle) under the race detector. Also
# part of the plain `race` target's ./internal/palm run; kept callable
# on its own for quick kernel work.
race-kernels:
	$(GO) test -race -run 'KernelAblation' -count=1 ./internal/palm

# The gapped-layout property tests (DESIGN.md §10) under the race
# detector: random-op differential runs at several orders plus the
# dense/gapped conversion round-trips. The PALM-level gapped race
# coverage is the gapped half of the 2^4 race-kernels matrix.
race-layout:
	$(GO) test -race -run 'Gapped|Layout' -count=1 ./internal/btree

# The scan/RMW paths (DESIGN.md §11) under the race detector: the
# engine's define-overlay batches across all modes and layouts (scans
# read the pre-batch tree in one pass and are patched from the defines
# that precede them), the pipeline's stage-A overlay build and stage-B
# evaluate-and-patch, the shard splitter/merger on straddling scans, and
# the facade-level batch API. Also part of the plain `race` target's
# package runs; kept callable on its own.
race-scan:
	$(GO) test -race -run 'ScanRMW|Overlay|ScanBatch|CoveringKill|ScanStats|CacheDrained' -count=1 ./internal/core
	$(GO) test -race -run 'SplitScan|Scan' -count=1 ./internal/shard
	$(GO) test -race -run 'BatchScanAndRMW' -count=1 ./qtrans

# The network front end (DESIGN.md §12) under the race detector: the
# full client/server stack — pipelining, admission-control shedding,
# and the mid-load graceful drain — plus the batcher's group-commit
# dispatch and stall regression suite it depends on. Also part of the
# plain `race` target; kept callable on its own for server work.
race-server:
	$(GO) test -race -count=1 ./internal/server
	$(GO) test -race -run 'Stall|SizeTriggered|DeadlineTriggered|ExplicitFlush|WaitAndExec' -count=1 ./internal/batcher
	$(GO) test -race -count=1 ./cmd/qtransserver

# Cold-range tiering (DESIGN.md §14) under the race detector: the full
# tier package (run/residency formats, store demotion/promotion, the
# wrapping engine's cold-search faulting), plus the facade-level tiered
# integration tests. Also part of the plain `race` target's ./qtrans
# run; kept callable on its own for tier work.
race-tiered:
	$(GO) test -race -count=1 ./internal/tier
	$(GO) test -race -run 'Tiered' -count=1 ./qtrans

# Traffic-aware autosharding (DESIGN.md §13) under the race detector:
# the controller policy tests (split/merge/hysteresis/boundary moves),
# the migration cache hand-off, and the facade-level hammer that runs
# the background controller against concurrent batch traffic. Also part
# of the plain `race` target's package runs; kept callable on its own.
race-autoshard:
	$(GO) test -race -run 'Autoshard' -count=1 ./internal/shard ./qtrans

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzShardEquivalence -fuzztime=10s ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzAutoshard -fuzztime=10s ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzRangeRMWEquivalence -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzCrashRecovery -fuzztime=10s ./qtrans
	$(GO) test -run=^$$ -fuzz=FuzzTieredEquivalence -fuzztime=10s ./qtrans
	$(GO) test -run=^$$ -fuzz=FuzzTreeOps -fuzztime=10s ./internal/btree
	$(GO) test -run=^$$ -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/server

bench-smoke:
	$(GO) test -run=XXX -bench=BenchmarkPipeline -benchtime=1x .
	$(GO) test -run=XXX -bench=BenchmarkDurability -benchtime=1x ./qtrans
	$(GO) test -run=XXX -bench=BenchmarkKernels -benchtime=1x ./internal/palm
	$(GO) test -run=XXX -bench=BenchmarkLayout -benchtime=1x ./internal/palm

# Full benchmark sweep with allocation reporting (not part of ci).
bench:
	$(GO) test -run=XXX -bench=. -benchmem .
