GO ?= go

.PHONY: all build fmt vet test race race-stress fuzz-smoke cover-check bench-smoke bench-ledger-smoke ledger figures-check loadtest-scale docs-check logcheck check clean

all: check

build:
	$(GO) build ./...

# fmt fails when any file needs gofmt, mirroring the CI check.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-stress repeats the race-enabled suite to shake out schedules a
# single pass misses (the store's worker pool and the traversal cache
# are the usual suspects).
race-stress:
	$(GO) test -race -count=2 ./...

# fuzz-smoke runs each index, langid, textproc, webcontent, analysis, socialgraph, ingest,
# scatter and httpapi fuzz target briefly; the checked-in corpus under testdata/fuzz is replayed by
# the plain test target. -fuzzminimizetime=0 keeps the run fuzzing: by
# default the first new input is minimised for up to 60 s, which left
# FuzzCursor at 436 execs in 10 s and 33 505 without it.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzIndexScore$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/index/
	$(GO) test -run '^$$' -fuzz '^FuzzBlockPostingsRoundTrip$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/index/
	$(GO) test -run '^$$' -fuzz '^FuzzCursor$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/index/
	$(GO) test -run '^$$' -fuzz '^FuzzReadIndex$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/index/
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaApply$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/index/
	$(GO) test -run '^$$' -fuzz '^FuzzIdentify$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/langid/
	$(GO) test -run '^$$' -fuzz '^FuzzStem$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/textproc/
	$(GO) test -run '^$$' -fuzz '^FuzzSanitizeAndTokenize$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/textproc/
	$(GO) test -run '^$$' -fuzz '^FuzzExtractMainContent$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/webcontent/
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeNeed$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/analysis/
	$(GO) test -run '^$$' -fuzz '^FuzzResourceCandidateMap$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/socialgraph/
	$(GO) test -run '^$$' -fuzz '^FuzzReachPatch$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/socialgraph/
	$(GO) test -run '^$$' -fuzz '^FuzzCorpusDiff$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzCoordinatorReply$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/scatter/
	$(GO) test -run '^$$' -fuzz '^FuzzFindReply$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/httpapi/
	$(GO) test -run '^$$' -fuzz '^FuzzShardEndpoints$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0 ./internal/httpapi/

# cover-check fails when any internal package's test coverage drops
# below its floor. The package list comes from `go list ./internal/...`
# rather than a hand-maintained enumeration, so a new package is gated
# from the day it lands: the scoring-critical packages carry their
# recorded floors, everything else the default. A package with no test
# files fails outright. The floors below are the only copy — CI calls
# this target. Recorded after the one-posting-list deletions:
# internal/core measured 99.5 %; after the scatter/ingest scenarios
# folded into the go tests and the simulation mode went, internal/loadgen
# measured 90.5 % (three runs); after Sharded was deleted for the
# directory-less Store internal/index measured 94.5–94.6 % (three runs);
# after Diff moved to record equality and Fingerprint went,
# internal/ingest measured 95.5 % (three runs); after seal and
# compaction became one transition internal/index measured 95.2–95.3 %
# (four runs; three statements a run reaches or misses by schedule or
# map order move it by up to 0.3), so its floor is 95.0.
COVER_FLOOR_DEFAULT = 55.0
cover-check:
	@$(GO) test -cover $$($(GO) list ./internal/...) | awk ' \
		BEGIN { floor["expertfind/internal/index"]=95.0; \
		        floor["expertfind/internal/core"]=99.0; \
		        floor["expertfind/internal/loadgen"]=89.9; \
		        floor["expertfind/internal/ingest"]=95.0 } \
		{ print } \
		$$1=="?" { print "coverage floor broken: " $$2 " has no test files"; bad=1 } \
		$$1=="ok" { f=$(COVER_FLOOR_DEFAULT); if ($$2 in floor) f=floor[$$2]; c=-1; \
			for (i=1;i<=NF;i++) if ($$i ~ /%$$/) { split($$i,a,"%"); c=a[1]+0 }; \
			if (c >= 0 && c < f) { printf "coverage floor broken: %s %.1f%% < %.1f%%\n", $$2, c, f; bad=1 } } \
		END { exit bad }'

# bench-smoke compiles and runs the cheap benchmarks once, catching
# bit-rot in the instrumented hot paths without a full bench run.
bench-smoke:
	$(GO) test -run xxx -bench=. -benchtime=1x ./internal/telemetry/ ./internal/index/ ./internal/analysis/ ./internal/core/ ./internal/socialgraph/

# bench-ledger-smoke runs the performance ledger's own tests. bench/
# is a nested module, so `go test ./...` from the root never compiles
# it; this is what catches a change to the surface it builds against.
# That surface, exactly, is what only a change to bench/ can free:
#   expertfind: NewSystem(Config{Seed, Scale, IndexShards}),
#     NewSystemFromStream(path, dir, StreamOptions{FlushDocs,
#     MaxSegments, KeepTexts}), ResolveParams, WithTopK, FindOption,
#     Expert, Query; System.Find, Queries, CoreFinder, SegmentStore,
#     SetResultCache, NewIngester
#   core: Finder.Graph, Candidates, Index, Pipeline, Matches,
#     RankFromMatches, FindAnalyzed; ResultCache (GetOrCompute, so
#     Finder.FindRanking's copying branch), CacheKey, CacheStatus,
#     CacheHit, ExpertScore, DefaultAlpha
#   index: Searcher.Score and ScoreTopK (on Finder.Index()),
#     NewStore(dir, StoreOptions{FlushDocs}), Store.AddBatch, Seal,
#     ApplyDelta, Compact, Maintain, Close, Status (StoreStatus
#     Segments, Tombstones, LiveDocs, MemtableDocs, Seals, Compactions,
#     DiskBytes), Doc{ID, A}, Delta{Removes, Updates},
#     DocUpdate{ID, Old, New}, DocID
#   socialgraph: Graph.ResourceCandidateMap, User, Resource,
#     ResourceDeleted, NumResources, NumContainers; ResourceID,
#     ContainerID, CandidateDistance
#   analysis: Pipeline.AnalyzeNeed, Analyze; Analyzed
#   rescache: New(Options{Capacity, Shards}), Cache.Attach
#   httpapi: NewWithOptions(sys, Options{Cache}), Handler.ServeHTTP,
#     SetSystem
#   ingest: Config{API}, Ingester.RunOnce (report Adds, Updates,
#     Removes), NewChurn(g, ChurnConfig{Seed, Adds, Updates, Removes}),
#     Churn.Round, FetchCatalog, Diff
#   dataset: Config{Seed, Scale, NumCandidates}, StreamConfig{Config,
#     ChunkDocs}, GenerateStream, Dataset.Graph, StreamChunk
#   corpusio: CreateStream (WriteBase, WriteChunk, Close),
#     LoadStreamFile(path, StreamLoadOptions{})
#   faults: Wrap(g, Config{}), API; resilience: Retryer{Policy},
#     DefaultRetry
#   kb: Builtin, Domains, KB.Vocab, KB.EntitiesInDomain (Label),
#     SurfaceForm; telemetry: Default().Counter(name, "").Value()
# It runs every workload at a tiny size; the seed-11 ranking pins are
# checked by a full `bash bench/run.sh --workload … --seed 11` run.
bench-ledger-smoke:
	cd bench && $(GO) test .

# ledger runs the performance ledger's four workloads at the pinned seed
# and prints one result line per workload: the before/after a perf claim
# owes is this target on the parent commit and on the change, one at a
# time (the estimator assumes it has the machine). With seed 11 a moved
# ranking shows as "correct":false. Each run's table goes to
# .bench_build/ledger.<workload>.log.
ledger:
	@mkdir -p .bench_build; \
	for w in mem_find seg_topk seg_churn http_cached; do \
		out=$$(bash bench/run.sh --workload $$w --seed 11 --trace 0 2>.bench_build/ledger.$$w.log) \
			|| { cat .bench_build/ledger.$$w.log; exit 1; }; \
		echo "$$w $$(echo "$$out" | tail -n 1)"; \
	done

# figures-check regenerates every reproduced figure and table (default
# seed and scale, ≈ 20 s) and byte-compares the result with the
# committed experiments_output.txt: the paper-side half of the fixed
# point, next to the ledger's ranking pins. cmd/experiments prints its
# timings on stderr, so stdout is reproducible bit for bit; a change
# that moves a figure on purpose commits the regenerated file.
figures-check:
	$(GO) run ./cmd/experiments > experiments_output.run.txt
	cmp experiments_output.txt experiments_output.run.txt

# loadtest-scale runs the million-user streaming run end to end at a
# CI-sized scale: the corpus is streamed to disk in bounded memory, the
# segment index is cold-built from the stream, wall-clock queries are
# served from it, and a full compaction must replay sampled queries
# bit-identically (BENCH_10.run.json). SCALE=100 is the committed
# headline run (1M+ users; regenerate the record with
#   go run ./cmd/loadtest -scale 100 -out BENCH_10.json).
SCALE ?= 10
loadtest-scale:
	$(GO) run ./cmd/loadtest -scale $(SCALE)

# logcheck enforces the structured-logging contract: the library and
# the serve and datagen commands log through log/slog only — a stdlib
# "log" import there regresses the structured access/ops logs. The
# package list comes from `go list ./internal/...`, as cover-check's
# does, so a new package is gated from the day it lands.
# (cmd/loadtest and the examples are exempt: they are CLI tools whose
# plain log output is their user interface, not ops telemetry.)
logcheck:
	@bad=$$(grep -rn --include='*.go' --exclude='*_test.go' '"log"$$' \
		$$($(GO) list ./internal/... ./cmd/serve ./cmd/datagen | sed 's|^expertfind/||')); \
	if [ -n "$$bad" ]; then \
		echo "stdlib log import in slog-converted packages:"; echo "$$bad"; exit 1; \
	fi; \
	echo "logcheck: converted packages log through log/slog only"

# docs-check runs the one docs tool: every package carries a package
# doc comment, the top-level documents name only make targets in the
# .PHONY line above, BENCH files git tracks, flags a command registers
# and sections DESIGN.md has, ARCHITECTURE.md's package map has one row
# per internal package, and the generated blocks in OPERATIONS.md (the
# serve and loadtest flag tables, the metrics table) are current.
# Regenerate them with `go run ./cmd/docscheck -write`.
docs-check:
	$(GO) run ./cmd/docscheck

# check is what CI runs: formatting, static analysis, build, the
# race-enabled test suite (which subsumes the plain one, and holds the
# multi-process scatter chaos gate TestScatterClusterChaos and the
# live-ingest gate TestIngestScopedInvalidationE2E), the bench smokes
# (index and analysis benchmarks and the ledger's own tests), the
# reproduced figures, the loadtest scale run, the coverage floors, and
# the documentation gates.
check: fmt vet build race bench-smoke bench-ledger-smoke figures-check loadtest-scale cover-check docs-check logcheck

clean:
	$(GO) clean ./...
