package simt_test

import (
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
)

// BenchmarkIssueWithTelemetry measures the steady-state issue pass with
// the occupancy sampler fully attached — stride 1 (every pass sampled)
// into a fixed-state per-SM obs.OccupancyStats sink. The zero-allocation
// gate for this shape is TestSteadyStateIssueAllocFreeGrid/sampler:
// observing the issue loop must never reintroduce allocations on the
// hot path.
func BenchmarkIssueWithTelemetry(b *testing.B) {
	mod, err := ir.Parse(simt.AllocTestKernelGrid)
	if err != nil {
		b.Fatal(err)
	}
	cfg := simt.Config{
		Grid: 2, CTASize: 2 * ir.WarpWidth, SMs: 1,
		Seed: 1, Strict: true,
		SampleStride: 1,
		SMSamples:    func(sm int) simt.SampleSink { return &obs.OccupancyStats{} },
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
	for i := 0; i < b.N; i++ {
		step()
	}
}
