package diffcheck

import (
	"errors"
	"strings"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

func TestCheckCleanMatrixKernel(t *testing.T) {
	k := MatrixKernel()
	for _, verify := range []bool{false, true} {
		res := Check(k, Options{Verify: verify})
		if !res.OK {
			t.Fatalf("verify=%v: clean kernel failed: %v", verify, res)
		}
		if res.SpecMetrics.Cycles == 0 || res.BaseMetrics.Cycles == 0 {
			t.Errorf("verify=%v: metrics not captured: %+v", verify, res)
		}
	}
}

func TestCheckAnnotatedWorkloads(t *testing.T) {
	// Every annotated benchmark must be differentially clean — this is
	// the paper's core claim (the transform never changes results, §4)
	// checked end to end.
	for _, w := range workloads.Annotated() {
		inst := w.Build(workloads.BuildConfig{})
		k := Kernel{
			Name: w.Name, Module: inst.Module, Entry: inst.Kernel,
			Threads: inst.Threads, Memory: inst.Memory, Seed: inst.Seed,
		}
		if res := Check(k, Options{Verify: true}); !res.OK {
			t.Errorf("%s: %v", w.Name, res)
		}
	}
}

func TestSeededCorpusSample(t *testing.T) {
	// A slice of the diffhunt campaign as a unit test; the 500-kernel
	// run lives in `make diffcheck-smoke`.
	n := 40
	if testing.Short() {
		n = 8
	}
	for _, app := range corpus.Generate(n, 42) {
		k := Kernel{
			Name: app.Name, Module: app.Module, Entry: app.Kernel,
			Threads: app.Threads, Memory: app.Memory, Seed: app.Seed,
		}
		res := Check(k, Options{AutoAnnotate: true, Verify: true})
		if !res.OK {
			t.Errorf("%s: %v", app.Name, res)
		}
	}
}

// TestFaultMatrixDetection enumerates the full injection matrix: every
// fault must be detected by at least one layer, and by exactly the
// layers its entry claims — a surprise detection (or a lost one) means
// the matrix no longer maps the real detection surface.
func TestFaultMatrixDetection(t *testing.T) {
	matrix := FaultMatrix()
	if len(matrix) < 6 {
		t.Fatalf("matrix has %d faults, want >= 6", len(matrix))
	}
	for _, o := range RunMatrix() {
		t.Run(o.Fault.Name, func(t *testing.T) {
			if !o.Detected() {
				t.Fatalf("fault escaped both layers (dynamic: %v)", o.Dynamic)
			}
			if !o.ExpectationMet() {
				t.Errorf("detection surface moved: static=%v (want %v), dynamic=%v (want %v)\n  static: %v\n  dynamic: %v",
					o.StaticErr != nil, o.Fault.WantStatic,
					!o.Dynamic.OK, o.Fault.WantDynamic,
					o.StaticErr, o.Dynamic)
			}
		})
	}
}

func TestParseFaultBothLayers(t *testing.T) {
	plan, rel, err := ParseFault("drop-cancel@2+skip-release@3")
	if err != nil {
		t.Fatal(err)
	}
	if plan != (core.FaultPlan{DropCancel: 2}) || rel != 3 {
		t.Fatalf("got plan=%v skip-release=%d", plan, rel)
	}
	if _, _, err := ParseFault("skip-release@0"); err == nil {
		t.Error("zero ordinal should be rejected")
	}
	if _, _, err := ParseFault("drop-everything"); err == nil {
		t.Error("unknown fault should be rejected")
	}
}

// TestNoFaultTargetSentinel: a fault plan whose target does not exist
// in the module fails the speculative build with an error that keeps
// core.ErrNoFaultTarget in its chain through the pass manager, on every
// pipeline a campaign compiles through.
func TestNoFaultTargetSentinel(t *testing.T) {
	k := MatrixKernel()
	for _, tc := range []struct {
		name  string
		opts  Options
		stage Stage
	}{
		{"plain", Options{}, StageCompileSpec},
		{"verify", Options{Verify: true}, StageVerify},
		{"repair", Options{Verify: true, Repair: true}, StageVerify},
	} {
		for _, plan := range []core.FaultPlan{{DropCancel: 99}, {DropRejoin: 99}} {
			tc.opts.Faults = plan
			res := Check(k, tc.opts)
			if res.Stage != tc.stage || !errors.Is(res.Err, core.ErrNoFaultTarget) {
				t.Errorf("%s %s: %v, want %s wrapping ErrNoFaultTarget", tc.name, plan, res, tc.stage)
			}
			if !strings.Contains(res.Err.Error(), "module has no such target") {
				t.Errorf("%s %s: message changed: %v", tc.name, plan, res.Err)
			}
		}
	}
	if res := Check(k, Options{Faults: core.FaultPlan{DropCancel: 1}, Verify: true}); errors.Is(res.Err, core.ErrNoFaultTarget) {
		t.Errorf("a planted fault reported no target: %v", res)
	}
}

func moduleSize(k Kernel) (blocks, instrs int) {
	for _, f := range k.Module.Funcs {
		blocks += len(f.Blocks)
		for _, b := range f.Blocks {
			instrs += len(b.Instrs)
		}
	}
	return
}

func TestMinimizeShrinksFailingKernel(t *testing.T) {
	k := MatrixKernel()
	opts := Options{Faults: core.FaultPlan{DropCancel: 1}}
	first := Check(k, opts)
	if first.OK {
		t.Fatal("faulted kernel should fail")
	}
	small, res := Minimize(k, opts)
	if res.OK || res.Stage != first.Stage {
		t.Fatalf("minimized kernel no longer reproduces: %v (was %v)", res, first)
	}
	b0, i0 := moduleSize(k)
	b1, i1 := moduleSize(small)
	if i1 >= i0 && b1 >= b0 && small.Threads >= k.Threads {
		t.Errorf("no shrink achieved: %d/%d blocks, %d/%d instrs, %d/%d threads",
			b1, b0, i1, i0, small.Threads, k.Threads)
	}
	t.Logf("shrank %d blocks/%d instrs/%d threads -> %d/%d/%d (%v)",
		b0, i0, k.Threads, b1, i1, small.Threads, res)
}

func TestMinimizeLeavesPassingKernelAlone(t *testing.T) {
	k := MatrixKernel()
	same, res := Minimize(k, Options{})
	if !res.OK {
		t.Fatalf("clean kernel failed: %v", res)
	}
	if same.Module != k.Module {
		t.Error("passing kernel should be returned unchanged")
	}
}

func TestWriteAndLoadRepro(t *testing.T) {
	dir := t.TempDir()
	k := MatrixKernel()
	opts := Options{SkipReleaseN: 1}
	res := Check(k, opts)
	if res.OK {
		t.Fatal("skip-release kernel should fail")
	}
	path, err := WriteRepro(dir, k, opts, res)
	if err != nil {
		t.Fatal(err)
	}
	again, err := WriteRepro(dir, k, opts, res)
	if err != nil {
		t.Fatal(err)
	}
	if path != again {
		t.Errorf("repro filename not deterministic: %s vs %s", path, again)
	}
	if !strings.HasSuffix(path, ".sasm") {
		t.Errorf("repro should be a .sasm file, got %s", path)
	}

	loaded, ro, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Fault != "skip-release@1" {
		t.Errorf("fault spec not round-tripped: %q", ro.Fault)
	}
	if loaded.Threads != k.Threads || loaded.Seed != k.Seed {
		t.Errorf("launch config not round-tripped: %+v", loaded)
	}
	plan, rel, err := ParseFault(ro.Fault)
	if err != nil {
		t.Fatal(err)
	}
	replay := Check(loaded, ro.Apply(Options{Faults: plan, SkipReleaseN: rel}))
	if replay.OK || replay.Stage != res.Stage {
		t.Errorf("replayed repro: %v, want failure at %s", replay, res.Stage)
	}
}

// TestReproRoundTripsScheduler: a repro recorded under a non-default
// scheduler carries the policy, seed, group-pick rule and starvation
// limit back through LoadRepro, so a schedule-dependent failure replays
// under exactly the schedule that exposed it.
func TestReproRoundTripsScheduler(t *testing.T) {
	dir := t.TempDir()
	k := MatrixKernel()
	opts := Options{
		SkipReleaseN: 1,
		Sched:        simt.SchedRandom,
		SchedSeed:    77,
		Policy:       simt.PolicyMinPC,
		StarveLimit:  1 << 20,
	}
	res := Check(k, opts)
	if res.OK {
		t.Fatal("skip-release kernel should fail")
	}
	path, err := WriteRepro(dir, k, opts, res)
	if err != nil {
		t.Fatal(err)
	}
	loaded, ro, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	want := ReproOpts{
		Fault: "skip-release@1", Sched: simt.SchedRandom, SchedSeed: 77,
		Policy: simt.PolicyMinPC, StarveLimit: 1 << 20,
	}
	if ro != want {
		t.Fatalf("replay env not round-tripped: %+v, want %+v", ro, want)
	}
	plan, rel, err := ParseFault(ro.Fault)
	if err != nil {
		t.Fatal(err)
	}
	replay := Check(loaded, ro.Apply(Options{Faults: plan, SkipReleaseN: rel}))
	if replay.OK || replay.Stage != res.Stage {
		t.Errorf("replayed repro: %v, want failure at %s", replay, res.Stage)
	}
}
