package simt_test

import (
	"runtime"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// TestSteadyStateIssueAllocFree pins the tentpole perf property: once a
// warp is warmed up (lane call stacks grown, block-visit rows created,
// cache sets filled), the ITS engine's issue loop performs zero heap
// allocations per step — with no sink attached, and with the profiler
// consuming the full event stream. A regression here multiplies across
// the hundreds of thousands of issue slots behind every figure.
func TestSteadyStateIssueAllocFree(t *testing.T) {
	mod, err := ir.Parse(simt.AllocTestKernel)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		events func() simt.EventSink
	}{
		{"bare", func() simt.EventSink { return nil }},
		{"profile", func() simt.EventSink { return obs.NewProfile(mod) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simt.Config{Threads: ir.WarpWidth, Seed: 1, Strict: true, Events: tc.events()}
			h, err := simt.NewHandSim(mod, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stepOnce := func() {
				done, err := h.Step()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					t.Fatal("kernel finished during measurement; extend the loop bound")
				}
			}
			for i := 0; i < 2000; i++ {
				stepOnce()
			}
			if avg := testing.AllocsPerRun(500, stepOnce); avg != 0 {
				t.Fatalf("steady-state allocations per issue = %v, want 0", avg)
			}
		})
	}

	// Every non-greedy scheduler policy must keep the flat issue loop
	// allocation-free too: a multi-warp wave driven one scheduling slot
	// at a time, with the profiler attached and the starvation monitor
	// armed (high limit, so the periodic scan runs but never fires).
	for _, sp := range simt.SchedPolicies() {
		if sp == simt.SchedGreedyConverge {
			continue
		}
		t.Run("sched-"+sp.String(), func(t *testing.T) {
			cfg := simt.Config{
				Threads: 2 * ir.WarpWidth, Seed: 1, Strict: true,
				Sched: sp, SchedSeed: 7, StarveLimit: 1 << 30,
				Events: obs.NewProfile(mod),
			}
			h, err := simt.NewHandSimFlat(mod, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stepOnce := func() {
				progress, err := h.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !progress {
					t.Fatal("wave retired during measurement; extend the loop bound")
				}
			}
			for i := 0; i < 2000; i++ {
				stepOnce()
			}
			if avg := testing.AllocsPerRun(500, stepOnce); avg != 0 {
				t.Fatalf("steady-state allocations per scheduling slot = %v, want 0", avg)
			}
		})
	}
}

// TestSteadyStateIssueAllocFreeGrid extends the allocation guard to the
// GPU hierarchy: a multi-CTA wave resident on one SM, with shared-memory
// traffic and a workgroup barrier in the hot loop, still issues with
// zero heap allocations per round-robin pass — bare, with a per-SM
// profiler sink attached via Config.SMEvents (the lock-free path a
// sharded run uses), and with the occupancy sampler recording every
// pass (stride 1) into a fixed-state obs.OccupancyStats sink via
// Config.SMSamples.
func TestSteadyStateIssueAllocFreeGrid(t *testing.T) {
	mod, err := ir.Parse(simt.AllocTestKernelGrid)
	if err != nil {
		t.Fatal(err)
	}
	profSink := func() func(sm int) simt.EventSink {
		return func(sm int) simt.EventSink { return obs.NewProfile(mod) }
	}
	statsSink := func() func(sm int) simt.SampleSink {
		return func(sm int) simt.SampleSink { return &obs.OccupancyStats{} }
	}
	cases := []struct {
		name     string
		smEvents func() func(sm int) simt.EventSink
		stride   int64
		sched    simt.SchedPolicy
	}{
		{"bare", func() func(sm int) simt.EventSink { return nil }, 0, simt.SchedGreedyConverge},
		{"profile", profSink, 0, simt.SchedGreedyConverge},
		{"sampler", func() func(sm int) simt.EventSink { return nil }, 1, simt.SchedGreedyConverge},
		{"profile+sampler", profSink, 1, simt.SchedGreedyConverge},
	}
	// Re-pin the guard under every non-greedy scheduler policy in the
	// most demanding shape: profiler attached, sampler at stride 1 and
	// the starvation monitor armed (high limit — the scan runs, never
	// fires).
	for _, sp := range simt.SchedPolicies() {
		if sp == simt.SchedGreedyConverge {
			continue
		}
		cases = append(cases, struct {
			name     string
			smEvents func() func(sm int) simt.EventSink
			stride   int64
			sched    simt.SchedPolicy
		}{"sched-" + sp.String(), profSink, 1, sp})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simt.Config{
				Grid: 2, CTASize: 2 * ir.WarpWidth, SMs: 1,
				Seed: 1, Strict: true, SMEvents: tc.smEvents(),
			}
			if tc.sched != simt.SchedGreedyConverge {
				cfg.Sched = tc.sched
				cfg.SchedSeed = 7
				cfg.StarveLimit = 1 << 30
			}
			if tc.stride > 0 {
				cfg.SampleStride = tc.stride
				cfg.SMSamples = statsSink()
			}
			h, err := simt.NewHandSimGPU(mod, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stepOnce := func() {
				progress, err := h.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !progress {
					t.Fatal("wave retired during measurement; extend the loop bound")
				}
			}
			for i := 0; i < 2000; i++ {
				stepOnce()
			}
			if avg := testing.AllocsPerRun(500, stepOnce); avg != 0 {
				t.Fatalf("steady-state allocations per issue pass = %v, want 0", avg)
			}
		})
	}
}

// memCost runs f once and returns the heap allocations and bytes the
// runtime counted meanwhile. Every goroutine counts, so the worker
// shards of a sharded launch are included.
func memCost(f func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// compiledWorkload builds a workload under cfg, compiles its speculative
// build and returns it with its launch config.
func compiledWorkload(t *testing.T, name string, cfg workloads.BuildConfig) (*ir.Module, simt.Config) {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(cfg)
	comp, err := core.Compile(inst.Module, core.SpecReconOptions())
	if err != nil {
		t.Fatal(err)
	}
	return comp.Module, simt.Config{
		Kernel: inst.Kernel, Threads: inst.Threads, Seed: inst.Seed, Memory: inst.Memory, Strict: true,
		Grid: inst.Grid, CTASize: inst.CTASize, SMs: inst.SMs, Workers: inst.Workers,
	}
}

// TestGPUScaleGridPinned pins one fresh run of the 8-SM sharded RSBench
// grid of BenchmarkGPUScale: its modeled launch and summed per-SM cycles
// exactly, and its heap bytes below 1,090,000 B. The bytes bound is
// 0.85x the 1,297,470 B a launch cost before copy-on-write SM memory,
// tightened by the build and compile cost the benchmark amortizes into
// each op.
func TestGPUScaleGridPinned(t *testing.T) {
	mod, cfg := compiledWorkload(t, "rsbench", workloads.BuildConfig{Grid: 16, CTASize: 64, SMs: 8, Workers: 8})
	var res *simt.Result
	_, bytes := memCost(func() {
		var err error
		if res, err = simt.Run(mod, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got := res.Metrics.Cycles; got != 540376 {
		t.Errorf("sim_cycles %d, pinned 540376", got)
	}
	if got := res.Metrics.TotalSMCycles; got != 4090335 {
		t.Errorf("total_sm_cycles %d, pinned 4090335", got)
	}
	t.Logf("run: %d B", bytes)
	if bytes > 1090000 {
		t.Errorf("%d B per run, want <= 1090000", bytes)
	}
}
