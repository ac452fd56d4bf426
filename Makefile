# Convenience targets for the N-Server reproduction. Everything is plain
# `go` underneath; the targets only bundle the common invocations.

GO ?= go

.PHONY: all build vet test race chaos model bench bench-allocs bench-shed bench-metrics bench-sendfile bench-shards bench-idle bench-overload bench-hot experiments examples cover clean

all: build vet test

build:
	$(GO) build ./...

# vet also fails on any Go source the toolchain's gofmt would rewrite
# (tracked or new, outside the ignored build outputs), listing the files.
# The file list comes from git, so outside a checkout the gate fails
# rather than checking nothing. It also cross-builds for Windows and
# macOS, whose descriptor-level code differs from Linux's.
vet:
	$(GO) vet ./...
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...
	@files=$$(git ls-files -co --exclude-standard '*.go'); \
	if [ -z "$$files" ]; then echo "gofmt gate: git lists no Go files"; exit 1; fi; \
	unformatted=$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$files) || exit 1; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# $(call repeat,COUNT,PACKAGE,PATTERN[,FLAGS]) runs the tests PATTERN
# selects in PACKAGE COUNT times, with the extra go test FLAGS (-race, say)
# when given. It first checks with `go test -list` that every `|`
# alternative of PATTERN names at least one test there, and fails
# otherwise: a renamed or deleted test would make the line a silent
# "no tests to run".
define repeat
	@listed=$$($(GO) test -list '.' $(2)) || exit 1; \
	for alt in $$(echo '$(3)' | tr '|' ' '); do \
		echo "$$listed" | grep -E '^(Test|Example|Fuzz)' | grep -qE -- "$$alt" || \
			{ echo "make test: -run alternative $$alt names no test in $(2)"; exit 1; }; \
	done
	$(GO) test $(4) -count=$(1) -run '$(3)' $(2)
endef

test: vet chaos
	$(GO) test ./...
	# Chunk order on the default read path: a reorder between two event
	# workers is a timing flake, so one run can miss it.
	$(call repeat,50,./internal/nserver,TestLargeRequestAcrossManyChunks|TestPipelinedBurstKeepsChunkOrder)
	# Reply order on the wire, for the same reason: pipelined replies that
	# complete out of order must still leave in request order.
	$(call repeat,20,./internal/copshttp,TestWirePipelinedRepliesStayOrdered|TestDirectDispatchPipelinedOrdering|TestAccessLogNamesPipelinedRequest|TestMixedPipelinedWindow)
	# The recycled-request window's fast-serve count, under the race
	# detector's timing, where a late queued drain once showed.
	$(GO) test -race -count=50 -run '^TestRecycledRequestsInPipelinedWindow$$' ./internal/copshttp
	# A peer whose replies park is throttled: no read follows the park, and
	# the race detector's slower drains widen the window where one could.
	$(GO) test -race -count=50 -run '^TestParkedQueueThrottlesReader$$' ./internal/nserver
	# The inbox bound holds in bytes: small reads behind a blocked Handle
	# join the newest queued chunk instead of each taking a place, under
	# the race detector's slower drains too.
	$(call repeat,20,./internal/nserver,TestInboxBoundIsInBytes,-race)
	# The same for COPS-FTP: a command pipelined behind a transfer must be
	# answered after the data connection's closing reply.
	$(call repeat,20,./internal/copsftp,TestPipelinedCommandWaitsForTransferReply)
	# A peer's EOF races the drain of what it sent before it: every reply
	# must still leave, then the close (half-closed HTTP clients, directly
	# and through the cluster tier; FTP data connections, whose uploads
	# end at the peer's EOF and whose 226/426 come from their close).
	$(call repeat,20,./internal/nserver,TestEOFDrainsQueuedRequests|TestAttachRunsItsOwnHooks)
	$(call repeat,20,./internal/copshttp,TestHalfCloseRepliesThenEOF)
	$(call repeat,20,./internal/cluster,TestHalfCloseThroughBalancer)
	$(call repeat,20,./internal/copsftp,TestStorResetAnswers426|TestStalledDataConnection|TestPasvAdvertisesControlAddress|TestPortRefusesThirdPartyHost|TestStorUpload|TestRetrPassive|TestActiveModePort)
	# Reader reuse: a reader whose idle wait is running out races attach's
	# hand-off, and a teardown's goroutine baseline must still hold with
	# readers outliving their connections; one run can miss either.
	$(call repeat,20,./internal/nserver,TestReaderReusedAcrossSequentialConns|TestIdleReadersExit|TestShutdownEndsIdleReaders|TestTeardownReleasesQueuedChunks)
	# Shutdown against teardown: a teardown submits its close event
	# straight into the processors Shutdown is draining, and a connection
	# accepted just before Shutdown must be swept or refused, never
	# attached after the sweep; one run can miss either interleaving.
	$(call repeat,20,./internal/nserver,TestShutdownRefusesLateAttach|TestShutdownRacesReadLoopsAndDeadlines)
	# Every read-side bound rides one read deadline, and a queued drain
	# stamps a partial request's start after the reader has already armed
	# it; the idle bound also rides the write pump's deadline, which a
	# steady reader on an unclamped socket meets only through the
	# TCP_NOTSENT_LOWAT wake. One run can miss the timing of either.
	$(call repeat,20,./internal/nserver,TestSlowlorisReaped|TestReadTimeoutClosesSilentConn|TestIdleReaperClosesIdleConnections|TestActiveConnectionNotReaped|TestIdleBoundSparesDrainingReader|TestIdleBoundSparesUnclampedDrainingReader|TestIdleBoundReapsParkedReply)
	# The sharded runtime must degenerate cleanly on one core: the shard
	# loops, work stealing, the fan-out accept path and the O9 admission
	# gate re-run serialized.
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/nserver ./internal/eventproc ./internal/reactor
	# A fixed-budget fuzz pass over every parser of outside input: the
	# request parser and its header list, each against its reference,
	# both path-traversal guards, the Range parser and the FTP command
	# parser. Each finds new inputs beyond the seed corpus that the plain
	# run replays.
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequestMatchesOracle$$' -fuzztime 10s ./internal/httpproto
	$(GO) test -run '^$$' -fuzz '^FuzzHeaderMatchesMap$$' -fuzztime 10s ./internal/httpproto
	$(GO) test -run '^$$' -fuzz '^FuzzCleanPathMatchesOracle$$' -fuzztime 10s ./internal/httpproto
	$(GO) test -run '^$$' -fuzz '^FuzzParseRange$$' -fuzztime 10s ./internal/httpproto
	$(GO) test -run '^$$' -fuzz '^FuzzResolvePath$$' -fuzztime 10s ./internal/ftpproto
	$(GO) test -run '^$$' -fuzz '^FuzzParseCommand$$' -fuzztime 10s ./internal/ftpproto
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
