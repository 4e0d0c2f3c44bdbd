package specrecon_test

import (
	"strings"
	"testing"

	"specrecon"
)

// TestFacadeEndToEnd drives the whole public API surface: build a kernel
// with the builder, print it, re-parse it, compile both variants, run
// them, and check the metrics.
func TestFacadeEndToEnd(t *testing.T) {
	mod := specrecon.NewModule("facade")
	mod.MemWords = 128
	fn := mod.NewFunction("kernel")
	b := specrecon.NewBuilder(fn)

	entry := fn.NewBlock("entry")
	header := fn.NewBlock("header")
	body := fn.NewBlock("body")
	hot := fn.NewBlock("hot")
	epilog := fn.NewBlock("epilog")
	done := fn.NewBlock("done")

	b.SetBlock(entry)
	tid := b.Tid()
	i := b.Reg()
	b.ConstTo(i, 0)
	n := b.Const(200)
	acc := b.FConst(0)
	b.Predict(hot)
	b.Br(header)

	b.SetBlock(header)
	b.CBr(b.SetLT(i, n), body, done)

	b.SetBlock(body)
	take := b.FSetLTI(b.FRand(), 0.2)
	b.CBr(take, hot, epilog)

	b.SetBlock(hot)
	x := b.FAddI(acc, 1.0)
	for k := 0; k < 24; k++ {
		x = b.FMA(x, x, acc)
		x = b.FSqrt(b.FAbs(x))
	}
	b.FMovTo(acc, b.FAdd(acc, x))
	b.Br(epilog)

	b.SetBlock(epilog)
	b.MovTo(i, b.AddI(i, 1))
	b.Br(header)

	b.SetBlock(done)
	b.FStore(tid, 0, acc)
	b.Exit()

	if err := specrecon.VerifyModule(mod); err != nil {
		t.Fatal(err)
	}

	// Textual round trip through the facade.
	text := specrecon.PrintModule(mod)
	if !strings.Contains(text, ".predict hot") {
		t.Errorf("printed module lacks the prediction directive:\n%s", text)
	}
	reparsed, err := specrecon.ParseModule(text)
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	if specrecon.PrintModule(reparsed) != text {
		t.Error("facade parse/print round trip unstable")
	}

	runWith := func(m *specrecon.Module, opts specrecon.CompileOptions) *specrecon.RunResult {
		comp, err := specrecon.Compile(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := specrecon.Run(comp.Module, specrecon.RunConfig{Kernel: "kernel", Seed: 4, Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := runWith(mod, specrecon.BaselineOptions())
	spec := runWith(reparsed, specrecon.SpecReconOptions()) // the reparsed module is equivalent
	if spec.Metrics.SIMTEfficiency() <= base.Metrics.SIMTEfficiency() {
		t.Errorf("facade spec build did not improve efficiency: %.3f -> %.3f",
			base.Metrics.SIMTEfficiency(), spec.Metrics.SIMTEfficiency())
	}
	for i := range base.Memory {
		if base.Memory[i] != spec.Memory[i] {
			t.Fatalf("facade builds disagree at word %d", i)
		}
	}
}

// TestFacadeWorkloads exercises workload lookup and the experiment entry
// points at reduced scale.
func TestFacadeWorkloads(t *testing.T) {
	all := specrecon.Workloads()
	if len(all) < 10 {
		t.Fatalf("bundled workloads = %d, want the full Table 2 suite", len(all))
	}
	if _, err := specrecon.WorkloadByName("rsbench"); err != nil {
		t.Fatal(err)
	}
	if _, err := specrecon.WorkloadByName("definitely-not-real"); err == nil {
		t.Error("unknown workload lookup should fail")
	}

	pts, err := specrecon.Figure9("pathtracer", specrecon.WorkloadConfig{Tasks: 4}, []int{1, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("sweep points = %d", len(pts))
	}

	fr, err := specrecon.RunFunnel(60, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Studied != 60 {
		t.Fatalf("funnel studied = %d", fr.Studied)
	}
}

// TestFacadeAutoDetect checks the detector surface.
func TestFacadeAutoDetect(t *testing.T) {
	w, err := specrecon.WorkloadByName("meiyamd5")
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(specrecon.WorkloadConfig{Tasks: 4})
	cands := specrecon.AutoDetect(inst.Module)
	if len(cands) == 0 {
		t.Fatal("no candidates on meiyamd5")
	}
	mod := inst.Module.Clone()
	applied := specrecon.AutoAnnotate(mod)
	if len(applied) == 0 {
		t.Fatal("nothing applied on meiyamd5")
	}
}

// TestFig1AllocBound bounds one compile-and-run of the Listing 1 kernel
// under speculative reconvergence (the BenchmarkFig1/specrecon op) at
// the 861 allocs that op cost when the allocation-free issue loop
// landed.
func TestFig1AllocBound(t *testing.T) {
	mod := buildListing1Kernel()
	avg := testing.AllocsPerRun(5, func() {
		comp, err := specrecon.Compile(mod, specrecon.SpecReconOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := specrecon.Run(comp.Module, specrecon.RunConfig{Kernel: "kernel", Seed: 1, Strict: true}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 861 {
		t.Errorf("%.0f allocs per compile+run, want <= 861", avg)
	}
}
