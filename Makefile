GO ?= go

.PHONY: all build vet test race race-mp chaos attack bench bench-check fuzz check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Data-race check over the concurrent paths: stream/collection, the
# sharded de-anonymization pipeline (PagesParallel + ShardedIncStudy), the
# live serving layer (concurrent queries against ingestion), and the
# transaction front door (quote readers racing the batch applier).
race:
	$(GO) test -race ./internal/netstream/... ./internal/monitor/... ./internal/faultnet/... ./internal/deanon/... ./internal/ledgerstore/... ./internal/serve/... ./internal/replay/... ./internal/txq/... ./internal/integration/...

# Multi-core pipeline pass: the view-pipeline differential suite with
# GOMAXPROCS pinned above 1, so the sharded apply workers, seal
# barrier, and cross-shard merges are genuinely concurrent even on a
# single-core default runner; the count-engine tests (ShardedInc,
# ParallelStudy, Feeder) run their concurrent feeders and shard workers
# the same way. Everything here must be bit-identical to the
# single-writer fold.
race-mp:
	GOMAXPROCS=4 $(GO) test -race -run 'PipelineWorkersMatchSequentialJSON|ShardPartitionMergeParityJSON|ShardedInc|ParallelStudy|Feeder|MergeClonedRepeatable|ViewWorker|Shed|ConcurrentQueries|ParallelBackfillMatchesSequential' ./internal/serve/ ./internal/deanon/ ./internal/analysis/

# Perf trajectory: run the Figure 3 pipeline and store benchmarks with
# allocation stats and archive them as JSON so future PRs can diff
# payments/s, ns/op, and B/op against this one. Serving-layer
# benchmarks (ingest fan-out, O(1) lookups, snapshot publish, HTTP)
# are archived in BENCH_serve.json; the zero-copy segment-scan path
# (ScanPayments projection, arena vs heap page decoding) in
# BENCH_store.json.
bench:
	$(GO) test -run '^$$' -bench 'Figure3|Fig3Deanon|Store' -benchmem . | tee bench.out
	$(GO) run ./cmd/benchjson -out BENCH_deanon.json < bench.out
	@echo "wrote BENCH_deanon.json"
	$(GO) test -run '^$$' -bench 'ScanPayments|PagesParallel' -benchmem ./internal/ledgerstore | tee bench_store.out
	$(GO) run ./cmd/benchjson -out BENCH_store.json < bench_store.out
	@echo "wrote BENCH_store.json"
	$(GO) test -run '^$$' -bench 'Serve' -benchmem ./internal/serve | tee bench_serve.out
	$(GO) run ./cmd/benchjson -check BENCH_serve.json -tolerance $(TOLERANCE) < bench_serve.out
	$(GO) run ./cmd/benchjson -out BENCH_serve.json < bench_serve.out
	@echo "wrote BENCH_serve.json"
	$(GO) test -run '^$$' -bench 'Table2Replay|Pathfind|CheckpointResume' -benchmem . | tee bench_replay.out
	$(GO) run ./cmd/benchjson -out BENCH_replay.json < bench_replay.out
	$(GO) test -run '^$$' -bench 'Shamap' -benchmem ./internal/shamap | tee bench_shamap.out
	$(GO) run ./cmd/benchjson -out BENCH_replay.json < bench_shamap.out
	@echo "wrote BENCH_replay.json"
	$(GO) test -run '^$$' -bench 'ConsensusRound' -benchmem ./internal/consensus | tee bench_consensus.out
	$(GO) run ./cmd/benchjson -out BENCH_consensus.json < bench_consensus.out
	@echo "wrote BENCH_consensus.json"
	$(GO) test -run '^$$' -bench 'TxqFrontDoor' -benchmem ./internal/txq | tee bench_txq.out
	$(GO) run ./cmd/benchjson -out BENCH_txq.json < bench_txq.out
	@echo "wrote BENCH_txq.json"

# Regression smoke: re-run the serving-layer benchmarks and gate ns/op
# against the committed archive without rewriting it. TOLERANCE is the
# allowed regression in percent; the archived numbers come from one
# machine, so loosen it when checking on very different hardware
# (`make bench-check TOLERANCE=50`).
TOLERANCE ?= 20
bench-check:
	$(GO) test -run '^$$' -bench 'Serve' -benchmem ./internal/serve | tee bench_serve.out
	$(GO) run ./cmd/benchjson -check BENCH_serve.json -tolerance $(TOLERANCE) < bench_serve.out
	$(GO) test -run '^$$' -bench 'TxqFrontDoor' -benchmem ./internal/txq | tee bench_txq.out
	$(GO) run ./cmd/benchjson -check BENCH_txq.json -tolerance $(TOLERANCE) < bench_txq.out
	$(GO) test -run '^$$' -bench 'CheckpointResume' -benchmem . | tee bench_ckpt.out
	$(GO) run ./cmd/benchjson -check BENCH_replay.json -tolerance $(TOLERANCE) < bench_ckpt.out

# Fuzz smoke: brief randomized exploration of the zero-copy decode
# surfaces (the in-place payment scan and the arena page decoder), the
# nodestore record framing, and the state-tree operation sequences —
# beyond their seeded corpora. CI runs the same targets with a short
# -fuzztime; run them longer locally when touching the codec.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzScanPayments$$' -fuzztime $(FUZZTIME) ./internal/ledger
	$(GO) test -run '^$$' -fuzz 'FuzzDecodePageInto$$' -fuzztime $(FUZZTIME) ./internal/ledger
	$(GO) test -run '^$$' -fuzz 'FuzzNodeDecode$$' -fuzztime $(FUZZTIME) ./internal/nodestore
	$(GO) test -run '^$$' -fuzz 'FuzzShamapOps$$' -fuzztime $(FUZZTIME) ./internal/shamap

# Short chaos pass: fault injection, resilience, and the degraded-stream
# integration test.
chaos:
	$(GO) test -run 'Fault|Chaos|Resilient|Stalled|Corrupt|Inject|Malformed|Health|BadFrames|Truncat|BitFlip' ./internal/...

# Adversarial pass: the Byzantine scenario engine, the fork/equivocation
# detectors, the end-to-end attack matrix over TCP, and the monitor CLI's
# fail-on-attack path.
attack:
	$(GO) test -run 'Attack|Scenario|Equivoc|Censor|Delay|Fork|Stall|Detect|Backoff|Benign' ./internal/consensus/ ./internal/monitor/ ./internal/netstream/ ./internal/integration/ ./cmd/consensus-monitor/

check: vet build test race race-mp chaos attack
