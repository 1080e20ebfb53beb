# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test cover cover-gate vet lint lint-baseline speclint self-test fmt paperbench trace-demo obs-smoke obs-demo scenarios scenarios-short fuzz examples pgo clean

# Pinned staticcheck release for CI; `make lint` uses a local install
# when one is on PATH and skips it (with a note) otherwise.
STATICCHECK_VERSION ?= 2025.1.1

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

cover:
	$(GO) test -cover ./...

# Enforce per-package coverage floors (internal/bch, core, sim); see
# scripts/cover_gate.sh for the numbers and the raising policy.
cover-gate:
	GO=$(GO) sh scripts/cover_gate.sh

vet:
	$(GO) vet ./...

# Project-specific static analysis (cmd/meccvet: the four-analyzer
# suite — concsafety, cyclewrap, determinism, errwrap — plus its
# unknown-directive check; see DESIGN.md §9) plus vet, plus
# scenario-spec validation, plus staticcheck when available.
# Allocation-freedom and nil-safe hooks are guarded at run time by the
# *ZeroAllocs and TestNilReceivers tests, not by meccvet. meccvet
# compares against the committed lint.baseline.json, so only NEW
# findings fail. `go vet` runs first: it compiles the export data in
# the Go build cache that meccvet imports every dependency from. CI
# runs the same set with staticcheck pinned at STATICCHECK_VERSION.
lint: speclint
	$(GO) vet ./...
	$(GO) run ./cmd/meccvet -baseline lint.baseline.json ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not on PATH; skipping (CI installs $(STATICCHECK_VERSION))"; \
	fi

# Validate every committed scenario spec (schema, invariant expressions,
# cross-references) without running the scenarios.
speclint:
	$(GO) run ./cmd/meccscn validate internal/scenario/specs/*.json

# Accept the current meccvet findings into lint.baseline.json (matching
# on file+analyzer+message, so line drift never stales it). Review the
# diff before committing: every entry is a finding nobody will see
# again.
lint-baseline:
	$(GO) run ./cmd/meccvet -baseline lint.baseline.json -write-baseline ./...

# The analysis framework's own test suite: SSA builder goldens and
# def-use invariants, the fixtures of the four analyzers (concsafety,
# cyclewrap, determinism, errwrap) and the directive fixture, and the
# meccvet CLI flag tests. CI runs this under -race.
self-test:
	$(GO) test ./internal/analysis/... ./cmd/meccvet/...

fmt:
	gofmt -l -w .

# Regenerate every table and figure of the paper (scale 1/400 ≈ minutes).
paperbench:
	$(GO) run ./cmd/paperbench

# Produce a short JSONL event trace from one MECC+SMD slice and
# pretty-print the interesting part of it (see DESIGN.md Observability).
trace-demo:
	$(GO) run ./cmd/meccsim -bench libq -scheme mecc -smd -scale 20000 \
		-trace-out trace-demo.jsonl > /dev/null
	$(GO) run ./cmd/obsdump -n 40 \
		-kinds mecc_transition,refresh_rate,refresh,smd_window,smd_enable,smd_disable,mdt_mark \
		trace-demo.jsonl

# Start a short MECC slice with the obs server attached, poll /healthz,
# validate the live /metrics exposition with the in-repo strict parser
# (cmd/obsscrape), and check the /progress JSON. CI runs this.
obs-smoke:
	GO=$(GO) sh scripts/obs_smoke.sh

# Same as obs-smoke, but also prints the scraped progress JSON and a
# metrics excerpt — a one-command tour of the live observability layer
# (see DESIGN.md Observability).
obs-demo:
	GO=$(GO) sh scripts/obs_smoke.sh demo

# Run every built-in scenario (internal/scenario/specs) end to end and
# evaluate the declared invariants; nonzero exit on any failure. The
# -short variant runs the fast subset CI uses on pull requests.
scenarios:
	$(GO) run ./cmd/meccscn run -v

scenarios-short:
	$(GO) run ./cmd/meccscn run -short

# Ten seconds on each of the tree's fifteen fuzz targets: the BCH
# decoder, seeded with the extension-bit-guard and t+1-error corpus
# (testdata/fuzz), and its encode/decode round trip; the ECC-6 and line
# SECDED codecs held to the golden references bit for bit; the
# retention fault sampler held to taking the logarithm of every draw;
# the meccvet baseline file, seeded with lint.baseline.json; the text
# and binary trace readers; obsdump's JSONL event reader, the
# Prometheus parser obsscrape feeds live HTTP input, and the
# -trace-events kind list; scenario-spec JSON, seeded with the built-in
# specs; the memory controller's fast paths held to per-cycle stepping
# on fuzz-chosen configs and arrival scripts; and sim.Config.Validate
# and the experiment harness options. CI runs this target.
fuzz:
	$(GO) test -run=XXX -fuzz FuzzDecodeNeverPanics -fuzztime 10s ./internal/bch/
	$(GO) test -run=XXX -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 10s ./internal/bch/
	$(GO) test -run=XXX -fuzz FuzzDecodeDifferential -fuzztime 10s ./internal/golden/
	$(GO) test -run=XXX -fuzz FuzzSECDEDDifferential -fuzztime 10s ./internal/golden/
	$(GO) test -run=XXX -fuzz FuzzFlipPositions -fuzztime 10s ./internal/retention/
	$(GO) test -run=XXX -fuzz FuzzLoadBaseline -fuzztime 10s ./internal/analysis/
	$(GO) test -run=XXX -fuzz FuzzReadText -fuzztime 10s ./internal/trace/
	$(GO) test -run=XXX -fuzz FuzzBinaryReader -fuzztime 10s ./internal/trace/
	$(GO) test -run=XXX -fuzz FuzzReadJSONL -fuzztime 10s ./internal/obs/
	$(GO) test -run=XXX -fuzz FuzzParseProm -fuzztime 10s ./internal/obs/
	$(GO) test -run=XXX -fuzz FuzzParseKindMask -fuzztime 10s ./internal/obs/
	$(GO) test -run=XXX -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/scenario/
	$(GO) test -run=XXX -fuzz FuzzStepOrJumpMatchesLegacy -fuzztime 10s ./internal/memctrl/
	$(GO) test -run=XXX -fuzz FuzzConfigValidate -fuzztime 10s ./internal/sim/
	$(GO) test -run=XXX -fuzz FuzzOptions -fuzztime 10s ./internal/experiments/

# Run each program under examples/ once at a small size (each takes
# well under a second), so an API change that breaks one fails here
# rather than only compiling. CI runs this target.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ecclab -trials 200
	$(GO) run ./examples/faultlab -lines 256 -epochs 2
	$(GO) run ./examples/idlephone -sessions 2
	$(GO) run ./examples/tracereplay -accesses 20000

# Recapture paperbench's profile-guided-optimization profile from the
# current code; commit it only if paired fig7 rounds are no slower.
pgo:
	$(GO) run ./cmd/paperbench -experiment fig7 -scale 400 -parallel 1 -cpuprofile cmd/paperbench/default.pgo > /dev/null

clean:
	$(GO) clean ./...
