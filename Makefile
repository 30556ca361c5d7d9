# Standard entry points for the scaleshift repo.  `make check` is the
# gate CI (and contributors) run before merging.

GO ?= go

# Build-info stamp: binaries report this via the scaleshift_build_info
# metric; defaults to the working revision.
VERSION ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)
LDFLAGS = -ldflags "-X scaleshift/internal/cliutil.Version=$(VERSION)"

.PHONY: check vet build test race examples-smoke loc cone bench bench-paths bench-fig45 bench-probe bench-nn bench-smoke bench-obs bench-verify bench-build fmt-check soak soak-smoke soak-cluster

# test already carries the allocation gates: the metrics-name lint
# (internal/obs/lint_test.go), the 0 allocs/op assertion over the
# disabled metric, span, and wide-event paths (internal/obs/
# alloc_test.go), and the range executor's allocs/query ceiling, which
# must scale neither with the candidate count nor with a segmented
# index's delta (TestExecRangeAllocCeiling in
# internal/core/exec_bench_test.go), beside the k-NN queue's
# (TestExecKNNAllocCeiling) and the bulk build's, which must not scale
# with the window count (TestBuildBulkAllocCeiling in
# internal/core/build_bench_test.go).
check: vet fmt-check cone build test race examples-smoke soak-smoke

vet:
	$(GO) vet ./...

# gofmt emits the offending paths; fail if there are any.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The runnable examples have no tests, so an API migration can leave
# them compiling but wrong; each exits non-zero when its own
# expectations fail (quickstart must retrieve B and C, longquery and
# streaming check themselves against a scan and a planted pattern,
# stocks holds its cost-bounded matches to their bounds, and motivation
# needs the scale/shift index to find every disguised source the
# Euclidean index misses).
examples-smoke:
	@for ex in quickstart longquery streaming stocks motivation; do \
		echo "== examples/$$ex"; \
		$(GO) run ./examples/$$ex >/dev/null || { echo "examples/$$ex failed"; exit 1; }; \
	done

# The line count the north star quotes ("net-negative lines"): tracked
# Go lines per package, test files apart; the frozen benchmark/ harness
# is listed but kept out of the total.
loc:
	@git ls-files '*.go' | xargs wc -l | awk '$$2 != "total" { \
		d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; \
		if ($$2 ~ /_test\.go$$/) t[d] += $$1; else s[d] += $$1; seen[d] = 1 } \
		END { for (d in seen) print d, s[d] + 0, t[d] + 0 }' | sort | awk ' \
		BEGIN { printf "%-28s %8s %8s\n", "package", "non-test", "test" } \
		{ printf "%-28s %8d %8d\n", $$1, $$2, $$3 } \
		$$1 !~ /^benchmark/ { s += $$2; t += $$3 } \
		END { printf "%-28s %8d %8d\n", "total (benchmark/ excluded)", s, t }'

# The serving cone: what the library, the servers and the tools that
# ship import.  The paper's experiment code — the insert-built R*-tree,
# the ablations, the tables — lives under internal/bench and must stay
# reachable from ssbench (and tests) only; internal/oracle, the
# exactness check, is test support and reachable from tests only.
cone:
	@out="$$($(GO) list -deps ./cmd/ssserve ./cmd/ssquery ./cmd/ssgen ./cmd/sstop . | grep -E '^scaleshift/internal/(bench|oracle)' || true)"; \
	if [ -n "$$out" ]; then echo "experiment or test-support packages in the serving cone:"; echo "$$out"; exit 1; fi

# Quick benchmark smoke: the build comparison and the verification
# micro-benchmarks committed under results/.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkBulkBuild' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkVerify' -benchtime 0.2s ./internal/vec/

# Tree vs scan at paper scale: the forced tree against the forced scan
# over epsilon on the bulk-built serving index, regenerating the
# committed artifact under a header naming the commit and the command.
bench-paths:
	{ echo "commit $$(git rev-parse --short HEAD)$$(git diff --quiet HEAD -- '*.go' || echo ' (with uncommitted changes)'); command: make bench-paths (go run ./cmd/ssbench -experiment paths -scale full)"; \
		$(GO) run ./cmd/ssbench -experiment paths -scale full; } > results/tree_vs_scan.txt
	@cat results/tree_vs_scan.txt

# Figures 4-5 at paper scale: the three method sets over epsilon (set 1
# the scan, sets 2-3 the insert-built R*-tree's slab under each
# penetration strategy), regenerating the committed table and CSV —
# the table under a header naming the commit and the command.  Only the
# cpu columns move from run to run.  Takes about five minutes.
bench-fig45:
	{ echo "commit $$(git rev-parse --short HEAD)$$(git diff --quiet HEAD -- '*.go' || echo ' (with uncommitted changes)'); command: make bench-fig45 (go run ./cmd/ssbench -experiment fig45 -scale full -csv results/fig45_full.csv)"; \
		$(GO) run ./cmd/ssbench -experiment fig45 -scale full -csv results/fig45_full.csv; } > results/fig45_full.txt
	@cat results/fig45_full.txt

# The probe fan-out sweep at paper scale: the index phase alone over
# ε-frac 0.001–0.02 at GOMAXPROCS 1 and 2 — frontier width (p50, max),
# probe time, the share of subtrees the helper ran and its start delay,
# node reads and leaf checks — the table core.probeFanoutWidth is read
# from, regenerated under a header naming the commit and the command.
bench-probe:
	{ echo "commit $$(git rev-parse --short HEAD)$$(git diff --quiet HEAD -- '*.go' || echo ' (with uncommitted changes)'); command: make bench-probe (go test -run '^\$$' -bench BenchmarkProbeFanout -cpu 1,2 -benchtime 300x ./internal/core)"; \
		$(GO) test -run '^$$' -bench BenchmarkProbeFanout -cpu 1,2 -benchtime 300x ./internal/core; } > results/probe_fanout.txt
	@cat results/probe_fanout.txt

# k-NN cost over k (Corollary 1) at paper scale on the bulk-built
# serving index, regenerating the committed artifact under a header
# naming the commit and the command.
bench-nn:
	{ echo "commit $$(git rev-parse --short HEAD)$$(git diff --quiet HEAD -- '*.go' || echo ' (with uncommitted changes)'); command: make bench-nn (go run ./cmd/ssbench -experiment nn -scale full)"; \
		$(GO) run ./cmd/ssbench -experiment nn -scale full; } > results/abl_nn.txt
	@cat results/abl_nn.txt

# Bench smoke: a small fig4/5 run with a metrics snapshot, the CI
# trajectory artifact (BENCH_smoke.json).
bench-smoke:
	$(GO) run ./cmd/ssbench -experiment fig45 -scale small -metrics-out BENCH_smoke.json
	@echo "metrics snapshot:" && head -20 BENCH_smoke.json

# Soak smoke: ~30s of chaos against a live ssserve under -race —
# concurrent queries vs an unfaulted oracle, hot reloads (clean and
# fault-injected), client disconnects, overload bursts, and a
# goroutine-leak assertion — plus the kill-and-restart recovery loop
# (concurrent appends, checkpoints, and reloads between crashes, with
# every acked append verified after each recovery).  SOAK_smoke.json
# is the metrics artifact CI uploads.
soak-smoke:
	SOAK_SECONDS=20 SOAK_METRICS_OUT=SOAK_smoke.json $(GO) test -race -count=1 -run 'TestSoak$$|TestSoakRecovery$$|TestSoakCluster$$' -v ./cmd/ssserve

# Full soak: minutes of the same chaos, for local pre-release runs.
soak:
	SOAK_SECONDS=120 SOAK_METRICS_OUT=SOAK_full.json $(GO) test -race -count=1 -timeout 10m -run 'TestSoak$$|TestSoakRecovery$$|TestSoakCluster$$' -v ./cmd/ssserve

# Cluster soak: three real shard processes (one behind a chaos TCP
# proxy that stalls, resets, and gets SIGKILLed+restarted) behind a
# scatter-gather coordinator, under -race.  Every answer is checked
# bit-exactly against a single-node oracle: 200s must equal the union
# oracle, 206s must equal the oracle minus exactly the faulted shard's
# slice, and nothing else is allowed — zero 5xx under shard loss.
soak-cluster:
	SOAK_SECONDS=30 SOAK_CLUSTER_METRICS_OUT=SOAK_cluster.json $(GO) test -race -count=1 -timeout 10m -run 'TestSoakCluster$$' -v ./cmd/ssserve

# The verifier's inner loop: range Exec at a tight and a loose ε over
# the fixed 200 x 650 fixture of the allocation ceiling test — frozen,
# and again as an append-mode server holds it (three frozen segments
# and a 4 000-window delta of boundary-straddling windows), there with
# a 10-NN query too, and the loose query once more with Limit 100 (first
# rows exact, the rest counted from the certified bounds) — and that
# limited loose query at the benchmark's own scale, 1000 x 650 at
# ε-frac 0.02 (BenchmarkExecRangePaperLooseLimit100: range_loose in
# process, its descent fanned out) beside the tight one at 0.001
# (BenchmarkExecRangePaperTight: the serial descent) — reporting ns/op, B/op, allocs/op, candidates/op and
# norm-certified/op in about thirty seconds, with no server to start.
# Run it before and after touching the probe, the delta, the candidate
# ordering, the kernels or the verifier; to compare two commits, build
# each once (`go test -c -o <file> ./internal/core`) and alternate the
# binaries three times.
bench-verify:
	$(GO) test -run '^$$' -bench 'BenchmarkExec(Range|KNN)' -benchmem ./internal/core

# The build pipeline's inner loop: a cold start's bulk build (feature
# extraction into columns, polar STR over a permutation, the serving
# arena) at 200 x 650 and at paper scale 1000 x 650 — with its stage
# split, extract-ms/op, tile-ms/op and emit-ms/op, the numbers a cold
# start's how= string carries — the fold of a 4 096-window delta into a
# frozen segment, and the write of the 1000 x 650 index artifact —
# ns/op, B/op and allocs/op, in about fifteen seconds.  Run it before
# and after touching extraction, rtree.BulkLoadFlat, the arena layout or
# the artifact writers.
bench-build:
	$(GO) test -run '^$$' -bench 'BenchmarkBuildBulk|BenchmarkCompactSegment|BenchmarkWriteIndexArtifact' -benchmem -benchtime 5x ./internal/core

# Observability overhead: the disabled-path micro-benchmarks — metric
# updates, span starts, and wide-event emission must all be 0 allocs/op
# — and the query benchmarks obs hooks ride on.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkDisabled|BenchmarkCounterInc|BenchmarkHistogramObserve' -benchmem ./internal/obs/
	$(GO) test -run '^$$' -bench 'BenchmarkFig4CPUTime' -benchtime 2x -benchmem .
