# Tier-1 gate and developer targets. `make check` is what CI (and the
# next PR) should run: build + tests + vet + race on the concurrent
# packages.

GO ?= go

.PHONY: all build test race vet portable bench bench-compare alloc-regression chaos fuzz check staticcheck perfbench-check loc

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the packages with real concurrency: the serving engine
# (including its chaos suite and the fan-out fused decision), the core
# controller it hammers, the assistant layer, the
# fault-tolerance layers (channel health, pair recomputation, fault
# injection), the DSP layer now that it holds the shared FFT plan
# cache and scratch pools, the streaming-ingest session manager
# (concurrent push/evict plus speaker tracking), the multi-array
# fusion vote the fan-out feeds, and the versioned model registry
# (atomic hot-swap/rollback under concurrent readers). headtalkd's
# restore records a tenant's device profile while other connections
# read it. The corpus generator is documented safe for concurrent use; its one
# concurrency test runs alone, because the rest of the dataset suite
# renders whole corpora and is slow under the race detector.
race:
	$(GO) test -race ./internal/serve ./internal/pool ./internal/core ./internal/va ./internal/metrics ./internal/mic ./internal/srp ./internal/faultinject ./internal/dsp ./internal/trace ./internal/stream ./internal/cluster ./internal/fusion ./internal/registry
	$(GO) test -race -run TestGeneratorConcurrent ./internal/dataset
	$(GO) test -race -run TestRestoreKeepsTenantProfile ./cmd/headtalkd

# Static analysis beyond go vet. staticcheck is not vendored; this
# target expects it on PATH (CI installs it with `go install`). Keep it
# out of `check` so the tier-1 gate stays dependency-free locally.
staticcheck:
	staticcheck ./...

vet:
	$(GO) vet ./...

# internal/dsp's AVX2 kernels are amd64 assembly; everywhere else the
# Go loops are the only path. Vet and build for arm64 so that path
# keeps compiling.
portable:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

# Fault-injection chaos suite, run twice under the race detector:
# exactly-once delivery and fail-closed decisions while the injector
# corrupts frames, drops channels, stalls stages and induces panics
# on the per-request worker (a panic fails its one submission closed
# and the worker keeps serving) — plus streaming-session
# isolation (a stalled session must not starve pushes or eviction for
# other sessions), plus federation isolation (dead, black-hole and
# slow-drip peers must fail fast with typed errors and leave
# locally-owned tenants' latency and error rate untouched). The stream
# pattern also covers the evicted-session push race and the
# at-capacity single-sweep contention tests added with speaker
# tracking. The registry line storms promote/rollback against live
# decision traffic: every resolved model set must stay complete and
# coherent mid-swap. The headtalkd line forwards back-to-back frames
# pushes for a peer-owned tenant: each forward must own its samples,
# since the connection decodes the next line into a reused buffer.
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Breaker|Panic|FaultInject' ./internal/serve ./internal/stream
	$(GO) test -race -count=2 ./internal/faultinject
	$(GO) test -race -count=2 -run 'Chaos' ./internal/cluster
	$(GO) test -race -count=2 -run 'HotSwap' ./internal/registry ./internal/core
	$(GO) test -race -count=2 -run 'Forward' ./cmd/headtalkd

# Native fuzz targets, each run for FUZZTIME (go test fuzzes one
# target per invocation): at the trust boundaries, the headtalkd frames
# fast path against encoding/json, headtalkd's request decode and verb
# lookup (one verb or one typed error per line), adversarial chunk
# shapes pushed into a streaming session, the binary peer frame (the
# one encoding of every peer request), the cluster snapshot envelope, WAV
# decode, the sealed model envelope file, and the SVM and ConvNet model
# loaders; the differential oracles of the band-pass and decimation
# kernels against their plain reference loops, and of the real
# transforms and Welch estimate under the AVX2 kernels against the Go
# loops; and one whole decision
# on the committed served enrollment (no panic, only typed bad-input
# errors, no accept of silence or DC). The snapshot
# seeds are whole tenant captures (~80 KB), so its minimization is
# capped, or shrinking one new input would take the whole run. CI runs
# a short pass; run longer locally, e.g.
#   make fuzz FUZZTIME=5m
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFramesRequest$$' -fuzztime $(FUZZTIME) ./cmd/headtalkd
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./cmd/headtalkd
	$(GO) test -run '^$$' -fuzz '^FuzzPushFrames$$' -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryRequest$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotEnvelope$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzReadWAVLimit$$' -fuzztime $(FUZZTIME) ./internal/audio
	$(GO) test -run '^$$' -fuzz '^FuzzReadEnvelopeFile$$' -fuzztime $(FUZZTIME) ./internal/registry
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSVM$$' -fuzztime $(FUZZTIME) ./internal/ml
	$(GO) test -run '^$$' -fuzz '^FuzzLoadConvNet$$' -fuzztime $(FUZZTIME) ./internal/ml
	$(GO) test -run '^$$' -fuzz '^FuzzIIRApplyTo$$' -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz '^FuzzDecimate$$' -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz '^FuzzRealTransformKernels$$' -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz '^FuzzProcessWake$$' -fuzztime $(FUZZTIME) ./internal/core

# Benchmarks, machine-readable: serving-layer throughput (worker
# sweep), the paper's §IV-B15 pipeline-stage timings, and the DSP
# engine micro-benchmarks. Every benchmark runs five times
# (-count), so bench-compare can take a median per side. Output is
# echoed to the terminal and teed through cmd/benchjson, which APPENDS
# one JSON record per result to $(BENCH_JSON) — successive runs
# accumulate, so the file holds the perf trajectory (grep by "tag").
# Override the tag per run:
#   make bench BENCH_TAG=pr8
# The EngineThroughput pattern also matches EngineThroughputTraced, so
# every bench run records the traced-vs-untraced serving delta (the
# tracing overhead budget is ≤5%). PipelineStages includes the
# streaming-cascade per-chunk stages, StreamEndToEnd records the
# streaming-vs-batch decision cost on identical audio, and
# ForwardOverhead records the federation tax (local vs peer-forwarded
# decision over loopback TCP). The ladder (Bandpass, Decimate,
# LivenessScore, FingerprintCheck) times the gates before orientation
# one kernel at a time on a 1.1 s 4-channel 48 kHz capture.
# GCCAllPairs runs the options of both served GCC callers (the
# orientation features and the stream's speaker signature), and
# IRFFTLags inverts a dense and a band-limited cross-spectrum.
# Kernels times each DSP kernel under the Go loops and under AVX2, and
# ReadWAV decodes the served 4-channel capture.
BENCH_JSON ?= BENCH_pr10.json
BENCH_TAG  ?= pr10

bench:
	$(GO) test -run xxx -bench 'BenchmarkEngineThroughput|BenchmarkRuntime|BenchmarkPipelineStages|BenchmarkStreamEndToEnd' -count 5 -benchmem -benchtime 50x . \
		| $(GO) run ./cmd/benchjson -tag $(BENCH_TAG) -append -out $(BENCH_JSON)
	$(GO) test -run xxx -bench 'BenchmarkRFFT|BenchmarkFFTPlan|BenchmarkIRFFTLags|BenchmarkBluestein|BenchmarkWelchPSD|BenchmarkKernels|BenchmarkGCCAllPairs|BenchmarkGCCPHATBand|BenchmarkReadWAV' -count 5 -benchmem ./internal/dsp ./internal/srp ./internal/audio \
		| $(GO) run ./cmd/benchjson -tag $(BENCH_TAG) -append -out $(BENCH_JSON)
	$(GO) test -run xxx -bench 'BenchmarkForwardOverhead' -count 5 -benchmem -benchtime 50x ./internal/cluster \
		| $(GO) run ./cmd/benchjson -tag $(BENCH_TAG) -append -out $(BENCH_JSON)
	$(GO) test -run xxx -bench 'BenchmarkDecideFused' -count 5 -benchmem -benchtime 50x ./internal/serve \
		| $(GO) run ./cmd/benchjson -tag $(BENCH_TAG) -append -out $(BENCH_JSON)
	$(GO) test -run xxx -bench 'BenchmarkBandpass|BenchmarkDecimate|BenchmarkLivenessScore|BenchmarkFingerprintCheck' -count 5 -benchmem ./internal/core \
		| $(GO) run ./cmd/benchjson -tag $(BENCH_TAG) -append -out $(BENCH_JSON)

# Per-benchmark delta table between two recorded tags, e.g.
#   make bench-compare BENCH_COMPARE=pr8-pre,pr8
# Each side is the median of every record of that benchmark under the
# tag, shown with its record count n; negative ns/op deltas are
# improvements.
BENCH_COMPARE ?= pr8-pre,pr8

bench-compare:
	$(GO) run ./cmd/benchjson -compare $(BENCH_COMPARE) -out $(BENCH_JSON)

# Allocation-regression gate: the AllocsPerRun pins that hold the
# steady-state serving path at zero allocations — the whole
# ProcessWake (session shortcut and full orientation path, also with
# both liveness models on the committed served enrollment) plus the
# per-layer workspaces it is built from and the registry's warm
# adaptation hook — plus headtalkd's frames
# fast path, which allocates only the id, tenant and session strings
# per push whatever the chunk's shape. -count=2 repeats
# each pin so a warm-up-dependent regression cannot hide behind test
# caching.
alloc-regression:
	$(GO) test -count=2 -run 'AllocFree|Allocs|ZeroAlloc' ./internal/core ./internal/features ./internal/liveness ./internal/ml ./internal/registry ./internal/srp ./internal/dsp ./internal/stream ./internal/trace ./internal/va ./cmd/headtalkd

# The served-path benchmark (perfbench/) is its own module, so ./...
# never builds or tests it. Vet and test it here so a change to an API
# it calls cannot break the benchmark unseen (~35 s).
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The code-size measure ROADMAP item 6 tracks: non-test Go lines
# outside the benchmark module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' | xargs cat | wc -l

check: build vet portable test race
