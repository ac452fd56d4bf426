# Convenience targets for the N-Server reproduction. Everything is plain
# `go` underneath; the targets only bundle the common invocations.

GO ?= go

.PHONY: all build vet test race chaos model bench bench-allocs bench-shed bench-metrics bench-sendfile bench-shards bench-idle bench-overload bench-hot experiments examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet chaos
	$(GO) test ./...
	# Chunk order on the default read path: a reorder between two event
	# workers is a timing flake, so one run can miss it.
	$(GO) test -count=50 -run 'TestLargeRequestAcrossManyChunks|TestPipelinedBurstKeepsChunkOrder' ./internal/nserver
	# The sharded runtime must degenerate cleanly on one core: the shard
	# loops, work stealing, fan-out accept paths and the O9 admission gate
	# re-run serialized.
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/nserver ./internal/eventproc ./internal/reactor
	# A medium model-based conformance run rides along with every test
	# sweep; `make model` runs the full 10k-program batch.
	$(MAKE) model MODEL_PROGRAMS=400

race:
	$(GO) test -race ./...

# The fault-injection suite: deterministic broken-network scenarios
# (internal/faultnet, fixed seeds) driving live servers, always under the
# race detector. Part of `make test`.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' .

# The model-based HTTP/1.1 conformance run: MODEL_PROGRAMS seeded client
# programs (plus every corner program and the persisted counterexample
# traces) executed against a live COPS-HTTP server and diffed against
# the executable specification in internal/model, always under the race
# detector. Deterministic: the same seed generates the same programs.
MODEL_PROGRAMS ?= 10000
model:
	MODEL_PROGRAMS=$(MODEL_PROGRAMS) $(GO) test -race -count=1 \
		-run 'TestModel|TestReplaySavedTraces|TestShedContract|TestSpec' ./internal/model

# One benchmark per table/figure plus ablations and micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# The hot-path regression snapshot: the alloc-pinned test plus the
# zero-copy and sharding benchmarks, recorded as JSON.
bench-allocs:
	$(GO) test -run TestHotPathAllocs -bench 'BenchmarkHTTPEncode|BenchmarkCacheParallelGet' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_PR1.json
	@cat BENCH_PR1.json

# The load-shedding snapshot: the 503 fast path's per-connection cost,
# recorded as JSON.
bench-shed:
	$(GO) test -run '^$$' -bench BenchmarkOverload503Shed -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_PR2.json
	@cat BENCH_PR2.json

# The observability snapshot: the alloc-pinned test (with O11 off the hot
# path must stay allocation-flat) plus the instrumented-versus-off encode
# path, recorded as JSON.
bench-metrics:
	$(GO) test -run TestHotPathAllocs -bench 'BenchmarkHTTPEncode|BenchmarkMetricsOverhead' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_PR3.json
	@cat BENCH_PR3.json

# The large-file snapshot: streamed-versus-buffered transfer throughput
# at 1/16/256 MiB with peak heap-in-use per mode (the streamed 256 MiB
# row must stay near the buffered 1 MiB row), recorded as JSON.
bench-sendfile:
	$(GO) test -run '^$$' -bench BenchmarkLargeFileServe -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_PR4.json
	@cat BENCH_PR4.json

# The sharding snapshot: loopback HTTP throughput with the runtime
# sharded 1/2/NumCPU ways plus the alloc-pinned hot path under sharding,
# recorded as JSON. On a single-core host the shard counts tie — record
# the numbers honestly; the scaling shows up on multi-core hardware.
bench-shards:
	$(GO) test -run TestHotPathAllocs -bench BenchmarkShardScaling -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_PR5.json
	@cat BENCH_PR5.json

# The idle-connection snapshot: park as many keep-alive connections as
# the descriptor limit allows (100k target, honestly clamped) and record
# goroutine growth, resident bytes per connection and wakeup-to-reply
# latency, the slow-reader park row, the shard-scaling rerun and the
# alloc-pinned hot path, recorded as JSON.
bench-idle:
	$(GO) test -run TestHotPathAllocs -bench 'BenchmarkIdleParkedConns|BenchmarkShardScaling|BenchmarkParkedSlowReaders' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_PR9.json
	@cat BENCH_PR9.json

# The overload-control snapshot: the O9 admission gate saturated by a
# closed loop (goodput, p99, per-class survival — the limiter must keep
# the high-priority class flowing while shedding the rest), plus the
# idle-connection park rerun, recorded as JSON. The committed
# BENCH_PR7.json still holds the row of the retired watermark-only gate,
# the evidence for retiring it; regenerating the file drops that row.
bench-overload:
	{ $(GO) test -run '^$$' -bench BenchmarkAdaptiveOverload -benchtime 10000x -benchmem . ; \
	  $(GO) test -run '^$$' -bench BenchmarkIdleParkedConns -benchmem . ; } \
		| $(GO) run ./cmd/benchjson > BENCH_PR7.json
	@cat BENCH_PR7.json

# The fast-path snapshot: the alloc-pinned hot serve (queued and
# rendered-response variants) plus the hot-URL serve cost and pipelined
# throughput, recorded as JSON.
bench-hot:
	$(GO) test -run TestHotPathAllocs -bench 'BenchmarkHotURLServe|BenchmarkPipelinedHotThroughput' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_PR10.json
	@cat BENCH_PR10.json

# Regenerate every table and figure at full virtual length.
experiments:
	$(GO) run ./cmd/experiments -all -repo .

# Run every example's self-demo.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/webserver
	$(GO) run ./examples/ftpserver
	$(GO) run ./examples/priorityweb
	$(GO) run ./examples/cluster
	$(GO) run ./examples/chat

cover:
	$(GO) test -coverprofile=cover.out ./internal/... && \
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
