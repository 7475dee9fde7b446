# Tier-1 CI gate (ROADMAP.md): `make ci` must pass on every PR.
#
#   vet          go vet + a gofmt -l cleanliness check over everything
#   build        compile everything
#   test         full unit/differential suite
#   race         every concurrency-heavy package under the race detector:
#                the BSP pool and its batch sorts (the radix sort's
#                partition scatters into one shared buffer), the
#                pipeline (and its serial/pipelined parity
#                test), the top-K cache's phase-1 probe API (probes and
#                in-place defines from many goroutines on disjoint
#                keys), the PALM BSP stages and their sorted-batch
#                kernel differentials, the gapped tree, the sharded
#                engine and autoshard controller, the cold-range tier
#                store, the WAL syncer, the batcher's group-commit
#                dispatch, the metrics registry, the shard routing
#                counters, the TCP server front
#                end and its CLI, and the facade (stream and service
#                hammers, scan/RMW batches, tiered and durable
#                integration, and the composition matrix of shards x
#                pipeline x durability x tier x autoshard against the
#                oracle)
#   fuzz-smoke   10s runs of the batch radix sort fuzzer (every size,
#                key width and pool size against the reference stable
#                sort, DESIGN.md §4 item 0), the shard differential
#                fuzzer (the
#                sharded/serial equivalence property of DESIGN.md §6,
#                including scan/RMW arms), the
#                autoshard differential fuzzer (random ops with the
#                resharding controller stepping between batches vs the
#                serial oracle, DESIGN.md §13), the
#                range/RMW differential fuzzer (the org and inter
#                engine modes, and adaptive over a prefilled order-4
#                tree at 1 and 3 workers, vs the oracle on batches
#                mixing all five ops, DESIGN.md §11), the
#                cache-pass fuzzer (point batches through the two-phase
#                top-K cache pass at several capacities and worker
#                counts plus a pipelined arm vs the oracle, with
#                identical cache counters for every worker count,
#                DESIGN.md §4 item 7), the cost-gate fuzzer (batch
#                sequences whose duplicate share crosses the Adaptive
#                gate's crossover both ways, so QSAT flips per batch and
#                the cache goes off, drains and comes back on; serial at
#                1/2/3 workers with identical gate decisions and
#                counters, pipelined, and 2 shards, all vs the oracle,
#                DESIGN.md §4 item 9; its batches are 256+ queries, so
#                minimising each new input is capped at 20 runs or the
#                10 s go to minimising the first one), the
#                crash-recovery fuzzer (the
#                durability property of DESIGN.md §7: power cut at an
#                arbitrary byte, then recover to an acked whole-batch
#                prefix — with RMW in the workload, at 1 and 4 shards,
#                and with checkpoints racing a pipelined stream from a
#                second goroutine, which fails if the gate is released
#                between a batch's log append and its apply), the tree fuzzer
#                (the gapped tree vs a map oracle, DESIGN.md §10), the
#                wire-protocol frame decoder
#                (canonical re-encode property, DESIGN.md §12), and the
#                tiered differential fuzzer (tiered facade vs the plain
#                facade and a map oracle with random demotion budgets,
#                DESIGN.md §14; the crash-recovery fuzzer also carries
#                a tiered pre-crash arm)
#   bench-smoke  one-iteration compile-and-run of the batch sort
#                size table, the pipeline, durability, kernel,
#                batch-size, QTrans transform, mixed scan/RMW batch,
#                cache pass and cost-gate crossover benchmarks
#                (catches bit-rot in the benchmarks without paying for a
#                measurement)

GO ?= go

.PHONY: ci vet build test race fuzz-smoke bench-smoke bench

ci: vet build test race fuzz-smoke bench-smoke

vet:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/bsp ./internal/core ./internal/cache ./internal/palm ./internal/btree ./internal/shard ./internal/tier ./internal/wal ./internal/batcher ./internal/metrics ./internal/stats ./internal/server ./cmd/qtransserver ./qtrans

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzRadixSortQueries -fuzztime=10s ./internal/bsp
	$(GO) test -run=^$$ -fuzz=FuzzShardEquivalence -fuzztime=10s ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzAutoshard -fuzztime=10s ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzRangeRMWEquivalence -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzCachePassEquivalence -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzGateEquivalence -fuzztime=10s -fuzzminimizetime=20x ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzCrashRecovery -fuzztime=10s ./qtrans
	$(GO) test -run=^$$ -fuzz=FuzzTieredEquivalence -fuzztime=10s ./qtrans
	$(GO) test -run=^$$ -fuzz=FuzzTreeOps -fuzztime=10s ./internal/btree
	$(GO) test -run=^$$ -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/server

bench-smoke:
	$(GO) test -run=XXX -bench=BenchmarkSortQueries -benchtime=1x ./internal/bsp
	$(GO) test -run=XXX -bench=BenchmarkPipeline -benchtime=1x .
	$(GO) test -run=XXX -bench=BenchmarkDurability -benchtime=1x ./qtrans
	$(GO) test -run=XXX -bench=BenchmarkKernels -benchtime=1x ./internal/palm
	$(GO) test -run=XXX -bench=BenchmarkProcessBatchSize -benchtime=1x ./internal/core
	$(GO) test -run=XXX -bench=BenchmarkTransform1M -benchtime=1x ./internal/core
	$(GO) test -run=XXX -bench=BenchmarkMixedScanBatch -benchtime=1x ./internal/core
	$(GO) test -run=XXX -bench=BenchmarkCachePass -benchtime=1x ./internal/core
	$(GO) test -run=XXX -bench=BenchmarkGateCrossover -benchtime=1x ./internal/core

# Full benchmark sweep with allocation reporting (not part of ci).
bench:
	$(GO) test -run=XXX -bench=. -benchmem .
