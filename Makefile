# Tier-1 verification plus the race detector and a benchmark smoke pass.
# The race run is mandatory: eval.Pairs and crpq atom materialization fan
# out over worker pools.

GO ?= go

.PHONY: all vet lint build test race bench-smoke fuzz-smoke serve-smoke profile-served ci

all: ci

vet:
	$(GO) vet ./...

# Static hygiene beyond vet: formatting drift, exported functions no other
# file references (internal/ packages have no outside importers, so those
# are dead code), and the pair representation the kernel tier left behind:
# between a sweep and its consumers pairs are pg.Runs (DESIGN §21), and
# [][2]int is spelled only where the library API returns it. The all-sources
# driver meets a batch's hits in order through a bitmap (DESIGN §22): a sort
# in internal/pg/sweepall.go is the per-batch cost that was deleted. An
# evaluator is stopped one way, through the pg.Meter it is handed (DESIGN §8):
# none of the language tiers below imports "context" outside its tests. The
# RPQ tower shares one regular-expression core (DESIGN §23): Glushkov's
# first/last/follow construction is written once, in GLUSHKOV_CORE, and a
# tier that declares a follow table or a nullable flag of its own has copied it.
# The pattern tiers are regular expressions on that core too: a struct with
# both a Left and a Right field in one of them is a binary chain node the
# shared n-ary Concat and Alternation replace. So are spanner formulas, and
# no non-test file outside internal/automata declares a Parts [] or Alts []
# field: that is a tier's own concatenation or union, which the shared
# nodes replace. Their texts are read once too, by rpq.Read: a dialect
# brings a lexer and its atoms, and the reader counts nesting — so outside
# internal/rpq no non-test file compares a count with rpq.MaxNesting. A
# construct a dialect reads itself counts through the reader (Nested, Enter).
# relalg's query algebra, JOIN/UNION/DIFF/PROJECT/RENAME, is not a regular
# expression and counts its own groups. The served kinds are one table, in
# KIND_TABLE, one row per language (DESIGN §14): a case on a Kind constant, a
# comparison with one, or a case on a result-kind literal ("pairs", "paths",
# "rows", "matches", "spans", "relation", "bag") in another non-test file of
# internal/core or internal/server is a second kind switch. eval.Budget,
# eval.NewMeter and eval.PairsProductCtx exist only for the benchmark
# harness: outside bench/ and internal/eval a file names pg's meter itself.
# A PMR is built on the product kernel it is handed (DESIGN §18), the one a
# serving layer's plan cache holds, never on an automaton compiled for it:
# no non-test file of internal/pmr imports internal/rpq.
# A language of the GQL family has one evaluator, its match enumerator
# (DESIGN §14): a served regular pattern runs as the Cypher fragment does, as
# an RPQ on the plan cache's kernel — so no non-test file of the
# PATTERN_TIERS imports internal/eval, whose pair evaluators would be a
# second path to a pattern's answer.
# A served plan is handed its product kernel (DESIGN §7): core builds one per
# (graph revision, RPQ expression) and keeps it in its kernel cache, so a
# kernel that internal/lrpq/plan.go, internal/crpq/plan.go or a non-test file
# of internal/relalg builds — pg.NewKernel, or eval's product constructors —
# is a second kernel of the same product, with its own condensation and
# reverse tables.
# Every served CRPQ joins one way (DESIGN §17): crpq.Plan, whose atoms are
# kernel sweeps or tier plans and whose join is wcoj. The package-level
# crpq.Eval is the oracle — the pairwise, string-keyed join that crossval,
# the fuzzer and the benchmark's oracle check the plan against — so
# internal/crpq/plan.go, a non-test file of internal/core and one of
# internal/regular never call it: a query sent there would be answered by
# the evaluator it is checked against.
# A node's edges in one direction are one row (DESIGN §7): its region of the
# label-sorted CSR, or its overlay row once a commit has touched it. A
# [][]int in a non-test file of internal/graph is a second per-node adjacency
# index, which every build would pay for and every commit would have to keep
# in step with the first.
METERED_TIERS := gql coregql cypherfrag spanner pmr bag twoway lrpq dlrpq relalg
GLUSHKOV_CORE := internal/automata/regex.go
PATTERN_TIERS := gql coregql cypherfrag
KIND_TABLE := internal/core/kinds.go

lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi
	bash scripts/dead_exports.sh
	@out="$$(grep -n -F '[][2]int' internal/crpq/plan.go $$(ls internal/pg/*.go internal/wcoj/*.go internal/core/*.go | grep -v _test.go) || true)"; \
		if [ -n "$$out" ]; then echo "[][2]int on the kernel tier (use pg.Runs):"; echo "$$out"; exit 1; fi
	@out="$$(grep -n -E 'slices\.Sort|sort\.' internal/pg/sweepall.go || true)"; \
		if [ -n "$$out" ]; then echo "a sort in the all-sources driver (hits are met through the batch's bitmap):"; echo "$$out"; exit 1; fi
	@out="$$(grep -n -F '"context"' $$(ls $(METERED_TIERS:%=internal/%/*.go) | grep -v _test.go) || true)"; \
		if [ -n "$$out" ]; then echo "an evaluator takes a context (stop it through the pg.Meter it is handed):"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE '(follow|nullable)[[:space:]]+(\[\]\[\]int|bool)' $$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path $(GLUSHKOV_CORE)) || true)"; \
		if [ -n "$$out" ]; then echo "a second Glushkov construction (compile through automata.Glushkov):"; echo "$$out"; exit 1; fi
	@out="$$(awk '/struct[[:space:]]*\{/ { at = FILENAME ":" FNR; l = r = 0 } \
		at && /(^|[{,;[:space:]])Left[,;[:space:]]/ { l = 1 } at && /(^|[{,;[:space:]])Right[,;[:space:]]/ { r = 1 } \
		at && l && r { print at; at = "" } /\}/ { at = "" }' $$(ls $(PATTERN_TIERS:%=internal/%/*.go) | grep -v _test.go))"; \
		if [ -n "$$out" ]; then echo "a binary pattern node (chains are automata.Concat and automata.Alternation):"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE '(^|[{;[:space:]])(Parts|Alts)[[:space:]]+\[\]' $$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path 'internal/automata/*') || true)"; \
		if [ -n "$$out" ]; then echo "a tier's own concatenation or union (use automata.Concat and automata.Alternation):"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE '[<>]=?[[:space:]]*rpq\.MaxNesting|rpq\.MaxNesting[[:space:]]*[<>]' $$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path 'internal/rpq/*' ! -path 'internal/relalg/*') || true)"; \
		if [ -n "$$out" ]; then echo "a dialect counting its own nesting (read through rpq.Read):"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE 'case[[:space:]]+Kind|[!=]=[[:space:]]*Kind|case[^:]*"(pairs|paths|rows|matches|spans|relation|bag)"' $$(ls internal/core/*.go internal/server/*.go | grep -v _test.go | grep -vxF $(KIND_TABLE)) || true)"; \
		if [ -n "$$out" ]; then echo "a second kind switch (look the kind up in $(KIND_TABLE)):"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE 'eval\.(Budget|NewMeter|PairsProductCtx)\b' $$(find . -name '*.go' ! -path './bench/*' ! -path './internal/eval/*') || true)"; \
		if [ -n "$$out" ]; then echo "the benchmark harness's meter names outside bench/ (use pg.Budget and pg.NewMeter):"; echo "$$out"; exit 1; fi
	@out="$$(grep -n -F '"graphquery/internal/rpq"' $$(ls internal/pmr/*.go | grep -v _test.go) || true)"; \
		if [ -n "$$out" ]; then echo "internal/pmr compiles an expression (build the PMR on the kernel it is handed):"; echo "$$out"; exit 1; fi
	@out="$$(grep -n -F '"graphquery/internal/eval"' $$(ls $(PATTERN_TIERS:%=internal/%/*.go) | grep -v _test.go) || true)"; \
		if [ -n "$$out" ]; then echo "a pattern tier evaluates through internal/eval (its one evaluator is the match enumerator):"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE 'pg\.NewKernel|eval\.(NewProduct|CompileProduct)' internal/lrpq/plan.go internal/crpq/plan.go $$(ls internal/relalg/*.go | grep -v _test.go) || true)"; \
		if [ -n "$$out" ]; then echo "a served plan builds its own kernel (take the one it is handed):"; echo "$$out"; exit 1; fi
	@out="$$( (grep -nE '(^|[^.[:alnum:]_])Eval(Ctx)?\(' internal/crpq/plan.go | grep -vE '^[0-9]+:[[:space:]]*(//|func \()'; \
		grep -nE 'crpq\.Eval(Ctx)?\(' $$(ls internal/core/*.go internal/regular/*.go | grep -v _test.go)) || true)"; \
		if [ -n "$$out" ]; then echo "a served or regular CRPQ sent to the reference crpq.Eval (compile it: crpq.Compile, Plan.Eval):"; echo "$$out"; exit 1; fi
	@out="$$(grep -n -F '[][]int' $$(ls internal/graph/*.go | grep -v _test.go) || true)"; \
		if [ -n "$$out" ]; then echo "a second per-node adjacency index in internal/graph (a node's edges are its CSR region or overlay row):"; echo "$$out"; exit 1; fi
	@out="$$(grep -n -F 'gpath.FromEdges' $$(ls internal/lrpq/*.go | grep -v _test.go | grep -vxF internal/lrpq/plan.go) || true)"; \
		if [ -n "$$out" ]; then echo "an ℓ-RPQ path built outside the walk (every mode emits through plan.go's walk):"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark — the root package's experiment rows,
# Build and its quoted-ID arena in internal/graph,
# the kernel-layer rows in internal/pg, the planner row in internal/pg/plan,
# the join rows in internal/wcoj, the CRPQ sweep-stage rows in internal/crpq,
# the anchored shortest-path rows in internal/lrpq, the commit and snapshot-read rows in internal/store and the
# served rows (output path, CRPQs, shortest paths, reads after a commit) in
# internal/server: catches bit-rot in the harnesses without waiting for
# stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/graph ./internal/pg ./internal/pg/plan ./internal/wcoj ./internal/crpq ./internal/lrpq ./internal/store ./internal/server

# Ten seconds of each fuzz target — the row encoder against encoding/json
# (strings, then windows of pair runs), the RPQ parser and the engine's all-pairs answer against per-source sweeps,
# the CRPQ parser and its served evaluator against the reference, the ℓ-RPQ
# parser and shortest mode against the mode-all definition, the relalg and
# spanner parsers' round trips and compile bounds, the Cypher-fragment, gql,
# 2RPQ and dl-RPQ parsers' round trips and time; the committed corpora alone run with every
# `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAppendJSONString -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRowBatchRuns -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/rpq
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/crpq
	$(GO) test -run '^$$' -fuzz FuzzShortest -fuzztime 10s ./internal/lrpq
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime 10s ./internal/relalg
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/spanner
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/cypherfrag
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/gql
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/twoway
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/dlrpq

# End-to-end check of the query daemon: build gqserverd under -race, start
# it on a random port, curl every endpoint and error class, then verify
# graceful shutdown drains an in-flight query.
serve-smoke:
	GO="$(GO)" bash scripts/serve_smoke.sh

# Where a served workload's daemon CPU goes: start gqserverd with graph W (or
# a comma-separated list of graphs) and -debug-addr, replay the request
# bodies of file Q in a closed loop for 15 s, and print the top of a 10 s
# CPU profile taken inside it, e.g.
#   make profile-served W=scalefree-20000 Q=scripts/short_reads.jsonl
#   (a 20-op block in the mix of bench/'s short-reads),
#   make profile-served W=scalefree-20000 Q=scripts/label_pairs.jsonl
#   (its label-pairs class alone: `b b b` and the cypher `-[:b]->-[:a]->`), or
#   make profile-served W=path-700,grid-20x20 Q=scripts/big_results.jsonl
#   (the five ops of bench/'s big-results, "stream": true for the NDJSON ones).
# KEEP=dir keeps the profile and the daemon binary there (cpu.pprof,
# gqserverd) for `go tool pprof -list`.
profile-served:
	GO="$(GO)" bash scripts/profile_served.sh "$(W)" "$(Q)" $(if $(KEEP),"$(KEEP)")

ci: lint build test race bench-smoke fuzz-smoke serve-smoke
