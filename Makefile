GO ?= go
BENCH_COUNT ?= 6
BASE ?= origin/main
THRESHOLD ?= 15
# The benchmarks the regression gate watches. This is the one place they are
# listed: bench runs them, and bench-compare and CI's bench-regression job
# both go through bench-gate.
BENCH_MATCH := ^Benchmark(A2AEqualSized|A2AExactTiny|A2AGreedy|A2ABigSmallSplit|X2YExactTiny|X2YGreedy|PlannerCold|PlannerCached|SchemaJSON|PlanReplyEncode|PlanReplyDecode|ExecStream|ExecStreamSpill|SkewJoin|SimJoin|SessionDelta|SessionRebuild|CoverSet|Auditor)

.PHONY: test bench bench-gate bench-compare baselines

test: ## tier-1: build everything, run every test
	$(GO) build ./... && $(GO) test ./...

bench: ## one pass over the regression-gated benchmark suite (stdout)
	@$(GO) test -run '^$$' -bench '$(BENCH_MATCH)' -count=$(BENCH_COUNT) -benchtime=0.3s \
	  ./internal/core ./internal/exec . ./cmd/pland ./pkg/assign/plandclient \
	  ./cmd/skewjoin ./cmd/simjoin ./internal/stream ./internal/wal

# Both targets below keep their intermediate files in a private mktemp
# directory that is removed on exit, so two runs on one box do not clobber
# each other.

bench-gate: ## compare two `make bench` outputs: make bench-gate OLD=base.txt NEW=head.txt
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-gate OLD=<file> NEW=<file>" >&2; exit 2; }
	$(GO) run ./cmd/benchdiff -mode=gate -old "$(OLD)" -new "$(NEW)" \
	  -threshold $(THRESHOLD) -match '$(BENCH_MATCH)'

bench-compare: ## bench BASE (temp worktree) and HEAD, fail on significant >THRESHOLD% growth of ns/op or B/op
	@set -e; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" $(BASE); \
	(cd "$$tmp/base" && $(MAKE) -f $(CURDIR)/Makefile bench > "$$tmp/base.txt") || true; \
	$(MAKE) bench > "$$tmp/head.txt"; \
	$(MAKE) bench-gate OLD="$$tmp/base.txt" NEW="$$tmp/head.txt"

baselines: ## regenerate the committed BENCH_*.json from a fresh suite run
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(MAKE) bench > "$$tmp/bench.txt"; \
	$(GO) run ./cmd/benchdiff -mode=baseline -in "$$tmp/bench.txt" -out BENCH_core.json \
	  -match '^Benchmark(CoverSet|Auditor|A2AEqualSized|A2AExactTiny|A2AGreedy|X2YExactTiny|X2YGreedy|PlannerCold|PlannerCached|SchemaJSON|PlanReplyEncode|PlanReplyDecode)' \
	  -note "bitset core hot paths: CoverSet primitives, auditor verification, the equal-sized a2a.Solve on the a2a_equal shapes, the portfolio members a2a.Exact (tiny), x2y.Exact (small X2Y sides), a2a.Greedy (a2a_big) and x2y.Greedy (svc_mixed X2Y hot shapes), planner cold/cached solves, the mapping-schema JSON codec on a 33 KB reply through encoding/json (SchemaJSON, the reference) and the same reply as pland writes it and plandclient reads it (PlanReplyEncode/Decode); regenerate with 'make baselines'"; \
	$(GO) run ./cmd/benchdiff -mode=baseline -in "$$tmp/bench.txt" -out BENCH_stream.json \
	  -match '^BenchmarkSession(Delta|Rebuild)' \
	  -note "m=1k churn (remove oldest, add replacement) at q=1024, uniform sizes [1,64]: incremental repair vs cheapest full re-solve per delta, and the incremental delta with the WAL journal attached under -fsync=interval (SessionDeltaJournaled); SessionRebuild is one Rebuild (replan by a2a.Solve plus swap) of the rebuild trace's drifted session, q=256, about 500 Zipf sizes up to 30; regenerate with 'make baselines'"; \
	$(GO) run ./cmd/benchdiff -mode=baseline -in "$$tmp/bench.txt" -out BENCH_exec.json \
	  -match '^Benchmark(ExecStream|SkewJoin|SimJoin)' \
	  -note "streaming pipeline end to end: 1500-doc similarity join (1.12M pairs) fed through pkg/assign Source/Each, planned from cache, audit on; ExecStream never spills, ExecStreamSpill runs under a memory budget below one record (25500 one-record runs in one spill file per op; every reducer reads its runs back); SkewJoin and SimJoin are the joins of cmd/skewjoin's and cmd/simjoin's default runs, planned from cache, audit on; a record of the suite, not a gate; regenerate with 'make baselines'"
