package simt_test

import (
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
)

// BenchmarkIssueSched measures the steady-state scheduling slot under
// every warp-scheduling policy, in the stress rig's most demanding
// shape: multi-CTA grid, per-SM profiler sink, occupancy sampler at
// stride 1, and the starvation monitor armed (high limit — the scan
// runs, never fires). An op is one Step: a pass over every resident
// warp under greedy, one scheduling slot under the other policies, so
// ns/op does not compare across policies; ns/issue, taken from the SM's
// issue counter, does. The zero-allocation gate for these shapes is
// TestSteadyStateIssueAllocFreeGrid (profile+sampler and sched-*).
func BenchmarkIssueSched(b *testing.B) {
	mod, err := ir.Parse(simt.AllocTestKernelGrid)
	if err != nil {
		b.Fatal(err)
	}
	for _, sp := range simt.SchedPolicies() {
		b.Run(sp.String(), func(b *testing.B) {
			cfg := simt.Config{
				Grid: 2, CTASize: 2 * ir.WarpWidth, SMs: 1,
				Seed: 1, Strict: true,
				SMEvents:     func(sm int) simt.EventSink { return obs.NewProfile(mod) },
				SampleStride: 1,
				SMSamples:    func(sm int) simt.SampleSink { return &obs.OccupancyStats{} },
			}
			if sp != simt.SchedGreedyConverge {
				cfg.Sched = sp
				cfg.SchedSeed = 7
				cfg.StarveLimit = 1 << 30
			}
			h, err := simt.NewHandSimGPU(mod, cfg)
			if err != nil {
				b.Fatal(err)
			}
			step := func() {
				progress, err := h.Step()
				if err != nil {
					b.Fatal(err)
				}
				if !progress {
					b.Fatal("wave retired during measurement; extend the kernel's loop bound")
				}
			}
			for i := 0; i < 2000; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			before := h.Issues()
			for i := 0; i < b.N; i++ {
				step()
			}
			if n := h.Issues() - before; n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/issue")
			}
		})
	}
}
