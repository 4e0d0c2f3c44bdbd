GO ?= go

.PHONY: all build test vet race check bench fmt figures profile-smoke scale-smoke fuzz-smoke diffcheck-smoke vet-corpus telemetry-smoke sched-smoke repair-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the pre-commit gate: everything must build, vet clean, and
# pass the full suite under the race detector. The harness package runs
# a second time with fresh counters so the worker-pool determinism and
# race coverage never ride a cached result. profile-smoke and
# scale-smoke check the profile and trace artifacts of a flat and a
# grid launch. The robustness smokes close the gate: short fuzz
# sessions on the parser, analyzer and pipeline, the seeded 500-kernel
# differential campaign with the fault matrix, and the static vetting
# sweep over the corpus and workloads.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) vet ./internal/obs
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/harness
	$(GO) test -race -count=1 ./internal/obs
	$(MAKE) profile-smoke
	$(MAKE) scale-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) diffcheck-smoke
	$(MAKE) vet-corpus
	$(MAKE) telemetry-smoke
	$(MAKE) sched-smoke
	$(MAKE) repair-smoke

# fuzz-smoke gives each fuzz target a short budget on top of the checked-in
# seed corpus: enough to catch shallow parser/pipeline regressions without
# holding up the gate.
fuzz-smoke:
	$(GO) test -fuzz FuzzParse -fuzztime 30s .
	$(GO) test -fuzz FuzzAnalyze -fuzztime 30s .
	$(GO) test -fuzz FuzzRepair -fuzztime 30s .
	$(GO) test -fuzz FuzzPipeline -fuzztime 30s .

# diffcheck-smoke is the seeded differential campaign: 500 corpus kernels
# compiled under both pipelines and compared, plus the full fault-injection
# matrix (every fault must be detected by the expected layer).
diffcheck-smoke:
	$(GO) run ./cmd/diffhunt -n 500 -seed 42 -matrix

# vet-corpus runs the static vetter over the seeded 500-kernel corpus
# and every bundled workload: zero error-severity diagnostics is the
# analyzer's false-positive budget, enforced at exit-code level. The
# SARIF report is validated as well-formed JSON along with the
# committed golden fixture the emitter tests pin.
vet-corpus:
	rm -rf /tmp/specrecon-vet-corpus
	mkdir -p /tmp/specrecon-vet-corpus
	$(GO) run ./cmd/sasmvet -q -corpus 500 -corpus-seed 42 -workloads \
		-sarif /tmp/specrecon-vet-corpus/vet.sarif
	$(GO) run ./cmd/jsoncheck \
		/tmp/specrecon-vet-corpus/vet.sarif \
		internal/analyze/testdata/diagnostics.sarif
	rm -rf /tmp/specrecon-vet-corpus

bench:
	$(GO) test -bench=. -benchmem

fmt:
	gofmt -l -w .

figures:
	$(GO) run ./cmd/figures -fig all

# scale-smoke exercises the GPU-scale engine end to end: a multi-CTA
# workload compiled under both builds and simulated as an 8-CTA grid
# over 4 sharded SMs with the profiler and the per-SM Perfetto trace
# attached, every artifact validated as well-formed JSON. The grid
# determinism itself (sharded == serial, byte for byte) is pinned by
# TestGridShardingDeterministic under -race above.
scale-smoke:
	rm -rf /tmp/specrecon-scale-smoke
	mkdir -p /tmp/specrecon-scale-smoke
	$(GO) run ./cmd/specrecon -kernel xsbench -mode both \
		-grid 8 -ctasize 64 -sms 4 -workers 2 -profile \
		-profile-json /tmp/specrecon-scale-smoke/profile.json \
		-trace-out /tmp/specrecon-scale-smoke/trace.json
	$(GO) run ./cmd/jsoncheck \
		/tmp/specrecon-scale-smoke/profile-baseline.json \
		/tmp/specrecon-scale-smoke/profile-spec.json \
		/tmp/specrecon-scale-smoke/trace-baseline.json \
		/tmp/specrecon-scale-smoke/trace-spec.json
	rm -rf /tmp/specrecon-scale-smoke

# telemetry-smoke exercises the fleet-telemetry layer end to end. A grid
# workload runs with the per-SM occupancy sampler and the telemetry
# snapshot attached; the snapshot and the trace (now carrying SM
# occupancy counter tracks) must be well-formed JSON. The Go-side
# coverage — registry/exporters/HTTP scrape, worker-pool
# instrumentation, sampler attribution — runs under -race. That the
# sampler adds zero allocations per issue is pinned by
# TestSteadyStateIssueAllocFreeGrid in the main suite.
telemetry-smoke:
	rm -rf /tmp/specrecon-telemetry-smoke
	mkdir -p /tmp/specrecon-telemetry-smoke
	$(GO) run ./cmd/specrecon -kernel rsbench -mode spec \
		-grid 8 -ctasize 64 -sms 4 -workers 2 \
		-sample-stride 64 \
		-telemetry-json /tmp/specrecon-telemetry-smoke/metrics.json \
		-trace-out /tmp/specrecon-telemetry-smoke/trace.json
	$(GO) run ./cmd/jsoncheck \
		/tmp/specrecon-telemetry-smoke/metrics.json \
		/tmp/specrecon-telemetry-smoke/trace.json
	$(GO) test -race -count=1 ./internal/telemetry
	$(GO) test -race -count=1 -run 'Telemetry|Occupancy|Sampler' \
		./internal/simt ./internal/obs ./internal/harness
	rm -rf /tmp/specrecon-telemetry-smoke

# sched-smoke exercises the schedule-exploration stress rig end to end.
# The planted scheduler-sensitive fault matrix must catch every fault at
# its pinned layer, then a short corpus campaign sweeps four adversarial
# policies x two schedule seeds against the greedy reference with the
# starvation monitor and wall-clock watchdog armed — zero findings and
# zero panics (schedhunt exits 1 on either), with the stats artifact
# validated as well-formed JSON. That every policy keeps the issue loop
# allocation-free is pinned by TestSteadyStateIssueAllocFreeGrid in the
# main suite.
sched-smoke:
	rm -rf /tmp/specrecon-sched-smoke
	mkdir -p /tmp/specrecon-sched-smoke
	$(GO) run ./cmd/schedhunt -n 60 -seed 42 -matrix \
		-policies oldest,youngest,obe,random -seeds 7,11 \
		-stats /tmp/specrecon-sched-smoke/stats.json
	$(GO) run ./cmd/jsoncheck /tmp/specrecon-sched-smoke/stats.json
	rm -rf /tmp/specrecon-sched-smoke

# repair-smoke runs the analysis-driven automated-repair campaign end
# to end: diffhunt plants every statically-visible matrix fault over the
# matrix kernel and a 120-application corpus, pushes each through
# repair-then-reverify, differentially checks every repaired build
# against the un-repaired PDOM baseline, and fails unless the
# post-repair fallback rate strictly improves on the pre-repair rate.
# The exact counts of this campaign are pinned by
# TestRepairCampaignExitsZero, and the sasmvet -fix exit contract
# (repaired exits 0, fallen back exits 1) by cmd/sasmvet's tests.
repair-smoke:
	$(GO) run ./cmd/diffhunt -repair -n 120 -seed 42

# profile-smoke runs one workload end to end with the profiler and the
# trace exporter attached, then validates every emitted artifact is
# non-empty well-formed JSON.
profile-smoke:
	rm -rf /tmp/specrecon-profile-smoke
	mkdir -p /tmp/specrecon-profile-smoke
	$(GO) run ./cmd/specrecon -kernel rsbench -mode both -profile \
		-profile-json /tmp/specrecon-profile-smoke/profile.json \
		-trace-out /tmp/specrecon-profile-smoke/trace.json
	$(GO) run ./cmd/jsoncheck \
		/tmp/specrecon-profile-smoke/profile-baseline.json \
		/tmp/specrecon-profile-smoke/profile-spec.json \
		/tmp/specrecon-profile-smoke/trace-baseline.json \
		/tmp/specrecon-profile-smoke/trace-spec.json
	rm -rf /tmp/specrecon-profile-smoke
