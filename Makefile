GO ?= go

.PHONY: all build test vet race check bench bench-baseline bench-scale bench-sweep fmt figures profile-smoke scale-smoke fuzz-smoke diffcheck-smoke vet-corpus telemetry-smoke sched-smoke repair-smoke

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
# race coverage never ride a cached result. The robustness smokes close
# the gate: short fuzz sessions on the parser, analyzer and pipeline,
# the seeded 500-kernel differential campaign with the fault matrix,
# and the static vetting sweep over the corpus and workloads.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) vet ./internal/obs
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/harness
	$(GO) test -race -count=1 ./internal/obs
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

# bench-baseline refreshes BENCH_2.json: a smoke pass first (every
# figure benchmark must still run to completion at -benchtime=1x), then
# a timed pass whose output is converted to JSON against the committed
# pre-optimization capture in testdata/bench_baseline_pre.txt.
bench-baseline:
	$(GO) test -run '^$$' -bench 'BenchmarkFig' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkFig' -benchmem . | tee bench_baseline_post.txt
	$(GO) run ./cmd/benchjson -in bench_baseline_post.txt \
		-pre testdata/bench_baseline_pre.txt \
		-note "pre = commit before the allocation-free issue loop; post = after. Single-core container: speedup_vs_pre comes from the zero-allocation hot path, not the worker pool." \
		-out BENCH_2.json
	rm -f bench_baseline_post.txt
	$(GO) run ./cmd/perfledger -ledger runs.jsonl -append -tool bench-baseline \
		-from-bench BENCH_2.json
	$(GO) run ./cmd/perfledger -ledger runs.jsonl -check -tool bench-baseline -last 5 \
		-gate "bench.Fig7/rsbench/specrecon.sim_cycles <= 1" \
		-gate "bench.Fig1/specrecon.allocs_per_op <= 1" \
		-gate "bench.Fig7/rsbench/specrecon.ns_per_op <= 1.5"

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

# bench-scale refreshes BENCH_6.json: the GPU-scale engine's
# strong-scaling capture. A fixed 16-CTA RSBench grid runs at 1, 4 and 8
# SMs, serial and sharded; sim_cycles shows the modeled strong scaling
# while total_sm_cycles stays flat. On the single-core CI container the
# sharded worker pool cannot improve wall-clock; the capture is about
# the modeled cycles and the determinism of the merge.
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkGPUScale' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkGPUScale' -benchmem . | tee bench_scale_post.txt
	$(GO) run ./cmd/benchjson -in bench_scale_post.txt \
		-note "GPU-scale engine strong scaling: fixed 16-CTA RSBench grid at 1/4/8 SMs, serial vs sharded workers. sim_cycles = launch cycles (max over SMs), total_sm_cycles = summed per-SM work. Single-core container: worker sharding cannot improve wall-clock here; determinism is pinned by TestGridShardingDeterministic." \
		-out BENCH_6.json
	rm -f bench_scale_post.txt
	$(GO) run ./cmd/perfledger -ledger runs.jsonl -append -tool bench-scale \
		-from-bench BENCH_6.json
	$(GO) run ./cmd/perfledger -ledger runs.jsonl -check -tool bench-scale -last 5 \
		-gate "bench.GPUScale/sm8-sharded.sim_cycles <= 1" \
		-gate "bench.GPUScale/sm8-sharded.total_sm_cycles <= 1" \
		-gate "bench.GPUScale/sm8-sharded.ns_per_op <= 1.5"

# bench-sweep refreshes BENCH_7.json: the sweep-scale capture behind the
# reusable launch arenas and copy-on-write SM memory. A smoke pass first,
# then a timed pass converted to JSON against the committed
# pre-optimization capture (testdata/bench_sweep_pre.txt), then
# benchguard enforces the acceptance ratios from the committed JSON:
# repeated same-compilation launches allocate >=5x less and the 8-SM
# bench's bytes/op is decoupled from the 512 KiB memory image. The long
# -benchtime amortizes one-time Machine construction into the per-op
# numbers.
bench-sweep:
	$(GO) test -run '^$$' -bench 'BenchmarkGPUScale|BenchmarkLaunchReuse' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkGPUScale|BenchmarkLaunchReuse' -benchtime=20x -benchmem . | tee bench_sweep_post.txt
	$(GO) run ./cmd/benchjson -in bench_sweep_post.txt \
		-pre testdata/bench_sweep_pre.txt \
		-note "pre = commit before the sweep-scale layer (fresh Run per point); post = Machine reuse + CoW SM memory. LaunchReuse relaunches one compilation via specrecon.Machine. Single-core container: wins come from allocation and copy elimination, not parallelism." \
		-out BENCH_7.json
	$(GO) run ./cmd/benchguard -in BENCH_7.json \
		-assert "LaunchReuse/flat allocs_ratio <= 0.2" \
		-assert "LaunchReuse/sm8 allocs_ratio <= 0.2" \
		-assert "LaunchReuse/sm8 bytes_ratio <= 0.5" \
		-assert "GPUScale/sm8-sharded bytes_ratio <= 0.85"
	rm -f bench_sweep_post.txt
	$(GO) run ./cmd/perfledger -ledger runs.jsonl -append -tool bench-sweep \
		-from-bench BENCH_7.json
	$(GO) run ./cmd/perfledger -ledger runs.jsonl -check -tool bench-sweep -last 5 \
		-gate "bench.LaunchReuse/flat.allocs_per_op <= 1" \
		-gate "bench.LaunchReuse/sm8.bytes_per_op <= 1.1"

# telemetry-smoke exercises the fleet-telemetry layer end to end. A grid
# workload runs with the per-SM occupancy sampler and the telemetry
# snapshot attached; the snapshot and the trace (now
# carrying SM occupancy counter tracks) must be well-formed JSON. The
# Go-side coverage — registry/exporters/HTTP scrape, worker-pool
# instrumentation, sampler attribution — runs under -race. The
# issue-loop benchmark then proves the sampler adds zero allocations
# (benchguard-enforced), and perfledger must flag the planted 40%
# wall-time regression in the committed fixture while the steady
# metrics pass their gates.
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
	$(GO) test -run '^$$' -bench 'BenchmarkIssueWithTelemetry' \
		-benchtime=20000x -benchmem ./internal/simt \
		| tee /tmp/specrecon-telemetry-smoke/bench.txt
	$(GO) run ./cmd/benchjson -in /tmp/specrecon-telemetry-smoke/bench.txt \
		-out /tmp/specrecon-telemetry-smoke/bench.json
	$(GO) run ./cmd/benchguard -in /tmp/specrecon-telemetry-smoke/bench.json \
		-assert "IssueWithTelemetry allocs_per_op <= 0"
	if $(GO) run ./cmd/perfledger -ledger cmd/perfledger/testdata/ledger_regression.jsonl \
		-check -tool bench-sweep -gate "wall_seconds <= 1.10"; then \
		echo "telemetry-smoke: perfledger missed the planted regression"; exit 1; fi
	$(GO) run ./cmd/perfledger -ledger cmd/perfledger/testdata/ledger_regression.jsonl \
		-check -tool bench-sweep \
		-gate "bench.IssueLoop/flat.ns_per_op <= 1.05" \
		-gate "ccache_hit_rate >= 0.95"
	rm -rf /tmp/specrecon-telemetry-smoke

# sched-smoke exercises the schedule-exploration stress rig end to end.
# The planted scheduler-sensitive fault matrix must catch every fault at
# its pinned layer, then a short corpus campaign sweeps four adversarial
# policies x two schedule seeds against the greedy reference with the
# starvation monitor and wall-clock watchdog armed — zero findings, with
# the stats artifact validated as well-formed JSON and the campaign
# record appended to the run ledger (perfledger gates: findings and
# panics may never grow from the baseline). The per-policy issue-loop
# benchmark then proves schedule exploration stays allocation-free
# under every policy (benchguard-enforced).
sched-smoke:
	rm -rf /tmp/specrecon-sched-smoke
	mkdir -p /tmp/specrecon-sched-smoke
	$(GO) run ./cmd/schedhunt -n 60 -seed 42 -matrix \
		-policies oldest,youngest,obe,random -seeds 7,11 \
		-stats /tmp/specrecon-sched-smoke/stats.json \
		-ledger runs.jsonl
	$(GO) run ./cmd/jsoncheck /tmp/specrecon-sched-smoke/stats.json
	$(GO) run ./cmd/perfledger -ledger runs.jsonl -check -tool schedhunt -last 5 \
		-gate "findings <= 1" \
		-gate "panics <= 1" \
		-gate "wall_seconds <= 2"
	$(GO) test -run '^$$' -bench 'BenchmarkIssueSched' \
		-benchtime=20000x -benchmem ./internal/simt \
		| tee /tmp/specrecon-sched-smoke/bench.txt
	$(GO) run ./cmd/benchjson -in /tmp/specrecon-sched-smoke/bench.txt \
		-out /tmp/specrecon-sched-smoke/bench.json
	$(GO) run ./cmd/benchguard -in /tmp/specrecon-sched-smoke/bench.json \
		-assert "IssueSched/greedy allocs_per_op <= 0" \
		-assert "IssueSched/oldest allocs_per_op <= 0" \
		-assert "IssueSched/youngest allocs_per_op <= 0" \
		-assert "IssueSched/obe allocs_per_op <= 0" \
		-assert "IssueSched/random allocs_per_op <= 0"
	rm -rf /tmp/specrecon-sched-smoke

# repair-smoke exercises the analysis-driven automated-repair pipeline
# end to end. The exit contract comes first: sasmvet -fix must repair an
# injected repairable fault on the canonical kernel and exit 0, while
# the designated unrepairable fault (SR1003 carries no machine edit)
# must fall through with the edits-applied count at zero and keep exit
# 1 — the gate distinguishes "repaired" from "fell back". The diffhunt
# repair campaign then plants every statically-visible matrix fault
# over the matrix kernel and a 120-application corpus, pushes each
# through repair-then-reverify, differentially checks every repaired
# build against the un-repaired PDOM baseline, and fails unless the
# post-repair fallback rate strictly improves on the pre-repair rate.
# The rates land in the run ledger; perfledger gates the fallback rate
# and proof failures against the recent baseline.
repair-smoke:
	$(GO) run ./cmd/sasmvet -q -compiled -inject drop-cancel@1 -fix \
		testdata/repair/listing1.sasm
	! $(GO) run ./cmd/sasmvet -q -compiled -inject drop-wait@1 -fix \
		testdata/repair/listing1.sasm
	$(GO) run ./cmd/diffhunt -repair -n 120 -seed 42 -ledger runs.jsonl
	$(GO) run ./cmd/perfledger -ledger runs.jsonl -check -tool diffhunt-repair -last 5 \
		-gate "repair_fallback_rate <= 1.05" \
		-gate "findings <= 1" \
		-gate "repaired >= 0.95"

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
