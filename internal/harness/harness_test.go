package harness

import (
	"math"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/workloads"
)

func TestVerifySameResults(t *testing.T) {
	a := []uint64{1, 2, math.Float64bits(1.0)}
	b := []uint64{1, 2, math.Float64bits(1.0 + 1e-13)}
	if err := VerifySameResults(a, b); err != nil {
		t.Errorf("tiny float difference should pass: %v", err)
	}
	c := []uint64{1, 2, math.Float64bits(1.5)}
	if err := VerifySameResults(a, c); err == nil {
		t.Error("large float difference should fail")
	}
	d := []uint64{1, 3, math.Float64bits(1.0)}
	if err := VerifySameResults(a, d); err == nil {
		t.Error("integer difference should fail")
	}
	if err := VerifySameResults(a, a[:2]); err == nil {
		t.Error("length mismatch should fail")
	}
	nan := []uint64{math.Float64bits(math.NaN())}
	nan2 := []uint64{math.Float64bits(math.NaN()) ^ 1} // different NaN payload
	if err := VerifySameResults(nan, nan2); err != nil {
		t.Errorf("NaN vs NaN should pass: %v", err)
	}
}

// TestFigure7Shape: every annotated benchmark improves SIMT efficiency,
// and the headline numbers sit in the paper's reported band.
func TestFigure7Shape(t *testing.T) {
	rows, err := Figure7(workloads.BuildConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads.Annotated()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(workloads.Annotated()))
	}
	for _, r := range rows {
		if r.SpecEff <= r.BaseEff {
			t.Errorf("%s: efficiency did not improve (%.3f -> %.3f)", r.Name, r.BaseEff, r.SpecEff)
		}
		if r.BaseEff <= 0 || r.SpecEff > 1 {
			t.Errorf("%s: nonsensical efficiencies %.3f/%.3f", r.Name, r.BaseEff, r.SpecEff)
		}
		if r.SpecPipeline != "pdom,predict,deconflict=dynamic,barrier-safety,alloc" {
			t.Errorf("%s: unexpected spec pipeline %q", r.Name, r.SpecPipeline)
		}
	}
}

// TestFigure8Band: the paper reports improvements "ranging from 10% to
// 3x in both SIMT efficiency and in performance".
func TestFigure8Band(t *testing.T) {
	rows, err := Figure8(workloads.BuildConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if g := r.EffImprovement(); g < 1.05 || g > 3.5 {
			t.Errorf("%s: efficiency improvement %.2fx outside the expected band", r.Name, g)
		}
		if s := r.Speedup(); s < 1.05 || s > 3.5 {
			t.Errorf("%s: speedup %.2fx outside the expected band", r.Name, s)
		}
	}
}

// TestFigure9PathTracerShape: PathTracer wants (near-)full
// reconvergence — high thresholds beat the no-wait end.
func TestFigure9PathTracerShape(t *testing.T) {
	pts, err := Figure9("pathtracer", workloads.BuildConfig{}, []int{1, 16, 32}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pts[2].Speedup <= pts[0].Speedup*0.98 {
		t.Errorf("pathtracer: full barrier (%.2fx) should not trail no-wait (%.2fx)",
			pts[2].Speedup, pts[0].Speedup)
	}
	if pts[1].Speedup <= 1.0 {
		t.Errorf("pathtracer: mid threshold should beat baseline, got %.2fx", pts[1].Speedup)
	}
}

// TestFigure9XSBenchShape: XSBench peaks at a partial threshold and the
// full barrier is distinctly worse (section 5.3).
func TestFigure9XSBenchShape(t *testing.T) {
	pts, err := Figure9("xsbench", workloads.BuildConfig{}, []int{1, 20, 32}, 0)
	if err != nil {
		t.Fatal(err)
	}
	noWait, mid, full := pts[0], pts[1], pts[2]
	if mid.Eff <= noWait.Eff || mid.Eff <= full.Eff {
		t.Errorf("xsbench efficiency should peak at the partial threshold: %.3f / %.3f / %.3f",
			noWait.Eff, mid.Eff, full.Eff)
	}
	if full.Speedup >= mid.Speedup {
		t.Errorf("xsbench full barrier (%.2fx) should trail the tuned threshold (%.2fx)",
			full.Speedup, mid.Speedup)
	}
}

// TestFigure10Upside: the auto-detected kernels all improve.
func TestFigure10Upside(t *testing.T) {
	rows, err := Figure10(workloads.BuildConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.SpecEff <= r.BaseEff {
			t.Errorf("%s: auto efficiency did not improve (%.3f -> %.3f)", r.Name, r.BaseEff, r.SpecEff)
		}
		if r.Speedup() < 1.1 {
			t.Errorf("%s: auto speedup %.2fx, want >= 1.1x", r.Name, r.Speedup())
		}
	}
}

// TestFunnelShape reproduces the section 5.4 funnel proportions.
func TestFunnelShape(t *testing.T) {
	fr, err := RunFunnel(520, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Studied != 520 {
		t.Fatalf("studied = %d", fr.Studied)
	}
	// Paper: 75 low-efficiency, 16 detected, 5 significant. Allow
	// sampling slack around those anchors.
	if fr.LowEff < 55 || fr.LowEff > 95 {
		t.Errorf("low-efficiency apps = %d, want about 75", fr.LowEff)
	}
	if fr.Detected < 8 || fr.Detected > 28 {
		t.Errorf("detected = %d, want about 16", fr.Detected)
	}
	if fr.Significant < 2 || fr.Significant > 12 {
		t.Errorf("significant = %d, want about 5", fr.Significant)
	}
	if fr.Significant > fr.Detected || fr.Detected > fr.LowEff || fr.LowEff > fr.Studied {
		t.Error("funnel is not monotone")
	}
}

// TestAutoMatchesManualPlacements checks section 5.4's claim on the real
// loop-merge benchmarks: the detector reproduces the programmer's
// (At, Label) annotation. XSBench is excluded by design (see
// DESIGN.md): its manual annotation gates the epilog, which the static
// cost model deliberately scores as unprofitable for naive loop merge.
func TestAutoMatchesManualPlacements(t *testing.T) {
	for _, name := range []string{"rsbench", "mcb", "mc-gpu", "gpu-mcml", "pathtracer", "mummer"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		inst := w.Build(workloads.BuildConfig{})
		var manualAt, manualLabel string
		for _, f := range inst.Module.Funcs {
			for _, p := range f.Predictions {
				manualAt, manualLabel = p.At.Name, p.Label.Name
			}
		}
		_, applied, err := AutoComparison(w, workloads.BuildConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(applied) == 0 {
			t.Errorf("%s: detector found nothing", name)
			continue
		}
		if applied[0].At.Name != manualAt || applied[0].Label.Name != manualLabel {
			t.Errorf("%s: auto placement (%s,%s) != manual (%s,%s)",
				name, applied[0].At.Name, applied[0].Label.Name, manualAt, manualLabel)
		}
	}
}

// TestCompareFaultedWorkloadFallsBack: a deliberately-faulted
// speculative build must not kill the experiment. A repairable fault is
// repaired and re-verified (the row measures the repaired speculative
// build — CompareOpts itself checks its results against the baseline);
// an unrepairable fault measures the PDOM fallback and reports it.
func TestCompareFaultedWorkloadFallsBack(t *testing.T) {
	w, err := workloads.Get("pathtracer")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.SpecReconOptions()
	opts.Faults = core.FaultPlan{DropCancel: 1}
	c, err := CompareOpts(w, workloads.BuildConfig{}, opts)
	if err != nil {
		t.Fatalf("faulted comparison should complete via repair, got %v", err)
	}
	if c.FellBack {
		t.Fatalf("repairable fault should be repaired, not fall back: %s", c.FallbackReason)
	}
	if !c.Repaired || c.RepairSummary == "" {
		t.Errorf("comparison should report the repair: %+v", c)
	}

	// An unrepairable fault (drop-wait -> SR1003 carries no machine
	// edit) still degrades to the measured PDOM fallback.
	opts.Faults = core.FaultPlan{DropWait: 1}
	c, err = CompareOpts(w, workloads.BuildConfig{}, opts)
	if err != nil {
		t.Fatalf("faulted comparison should complete via fallback, got %v", err)
	}
	if !c.FellBack {
		t.Fatal("comparison should report the fallback")
	}
	if c.Repaired {
		t.Error("fallback row should not also claim a repair")
	}
	if c.FallbackReason == "" {
		t.Error("fallback reason should be recorded")
	}
	// The fallback is the baseline, so the two sides must match exactly.
	if c.SpecEff != c.BaseEff || c.SpecCycles != c.BaseCycles {
		t.Errorf("fallback row should measure the baseline: %+v", c)
	}

	// The unfaulted comparison stays fallback- and repair-free.
	clean, err := Compare(w, workloads.BuildConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if clean.FellBack {
		t.Errorf("clean build fell back: %s", clean.FallbackReason)
	}
	if clean.Repaired {
		t.Errorf("clean build claims a repair: %s", clean.RepairSummary)
	}
}
