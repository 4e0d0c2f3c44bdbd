package harness

import (
	"math"
	"testing"

	"specrecon/internal/workloads"
)

// TestReferenceNumbersPinned pins the exact deterministic reference run
// recorded in EXPERIMENTS.md (defaults: 64 threads, seed 0x5eed). The
// whole stack is deterministic, so these reproduce bit-for-bit: cycles
// are compared exactly, and a small tolerance on the percentages
// absorbs only float formatting. If a deliberate change to a workload
// or pass shifts these, update EXPERIMENTS.md alongside this table.
func TestReferenceNumbersPinned(t *testing.T) {
	want := []struct {
		name                   string
		baseEff                float64 // percent
		specEff                float64
		speedup                float64
		baseCycles, specCycles int64
	}{
		{"callmicro", 52.7, 89.1, 1.87, 37144, 19916},
		{"gpu-mcml", 26.5, 54.1, 1.96, 170821, 87245},
		{"mc-gpu", 24.4, 49.7, 1.96, 182770, 93229},
		{"mcb", 24.8, 47.3, 2.13, 118420, 55702},
		{"mummer", 25.1, 48.4, 1.30, 119552, 91623},
		{"pathtracer", 26.6, 42.4, 1.89, 74080, 39151},
		{"rsbench", 22.7, 46.3, 1.74, 417804, 239654},
		{"xsbench", 41.0, 54.4, 1.19, 244291, 204997},
	}
	rows, err := Figure7(workloads.BuildConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Comparison{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	for _, w := range want {
		r, ok := byName[w.name]
		if !ok {
			t.Errorf("%s missing from Figure 7", w.name)
			continue
		}
		if math.Abs(100*r.BaseEff-w.baseEff) > 0.15 {
			t.Errorf("%s: base eff %.1f%%, EXPERIMENTS.md records %.1f%%", w.name, 100*r.BaseEff, w.baseEff)
		}
		if math.Abs(100*r.SpecEff-w.specEff) > 0.15 {
			t.Errorf("%s: spec eff %.1f%%, EXPERIMENTS.md records %.1f%%", w.name, 100*r.SpecEff, w.specEff)
		}
		if math.Abs(r.Speedup()-w.speedup) > 0.015 {
			t.Errorf("%s: speedup %.2fx, EXPERIMENTS.md records %.2fx", w.name, r.Speedup(), w.speedup)
		}
		if r.BaseCycles != w.baseCycles || r.SpecCycles != w.specCycles {
			t.Errorf("%s: cycles %d/%d (base/spec), pinned %d/%d",
				w.name, r.BaseCycles, r.SpecCycles, w.baseCycles, w.specCycles)
		}
	}
}
