// Benchmarks regenerating every results figure of the paper. Each bench
// iteration performs the complete simulated experiment and reports the
// paper's metrics via testing.B custom metrics:
//
//	simt_eff_%      SIMT efficiency of the measured build
//	sim_cycles      modeled runtime of the measured build
//	speedup_x       baseline cycles / optimized cycles
//	eff_gain_x      optimized efficiency / baseline efficiency
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// BenchmarkFig1 exercises the Listing 1 / Figure 1 motivating kernel;
// BenchmarkFig7 and BenchmarkFig8 cover the programmer-annotated suite;
// BenchmarkFig9 sweeps soft-barrier thresholds for PathTracer and
// XSBench; BenchmarkFig10 covers automatic detection plus the section
// 5.4 population funnel; BenchmarkCompile measures the compiler passes
// themselves (Figures 4-6 machinery).
package specrecon_test

import (
	"flag"
	"testing"

	"specrecon"
)

// runOnce compiles and simulates one build of a workload instance.
func runOnce(b *testing.B, inst *specrecon.WorkloadInstance, opts specrecon.CompileOptions) *specrecon.RunResult {
	b.Helper()
	comp, err := specrecon.Compile(inst.Module, opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := specrecon.Run(comp.Module, specrecon.RunConfig{
		Kernel:  inst.Kernel,
		Threads: inst.Threads,
		Seed:    inst.Seed,
		Memory:  inst.Memory,
		Strict:  true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func buildNamed(b *testing.B, name string) *specrecon.WorkloadInstance {
	b.Helper()
	w, err := specrecon.WorkloadByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return w.Build(specrecon.WorkloadConfig{})
}

// BenchmarkFig1 runs the paper's motivating iteration-delay kernel
// (Figure 1 / Listing 1) under PDOM and speculative reconvergence.
func BenchmarkFig1(b *testing.B) {
	mod := buildListing1Kernel()
	for _, mode := range []struct {
		name string
		opts specrecon.CompileOptions
	}{
		{"pdom", specrecon.BaselineOptions()},
		{"specrecon", specrecon.SpecReconOptions()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var eff float64
			var cycles int64
			for i := 0; i < b.N; i++ {
				comp, err := specrecon.Compile(mod, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				res, err := specrecon.Run(comp.Module, specrecon.RunConfig{Kernel: "kernel", Seed: 1, Strict: true})
				if err != nil {
					b.Fatal(err)
				}
				eff = res.Metrics.SIMTEfficiency()
				cycles = res.Metrics.Cycles
			}
			b.ReportMetric(100*eff, "simt_eff_%")
			b.ReportMetric(float64(cycles), "sim_cycles")
		})
	}
}

// buildListing1Kernel reconstructs Listing 1 with the facade API.
func buildListing1Kernel() *specrecon.Module {
	mod := specrecon.NewModule("listing1")
	mod.MemWords = 128
	fn := mod.NewFunction("kernel")
	bd := specrecon.NewBuilder(fn)

	entry := fn.NewBlock("entry")
	header := fn.NewBlock("header")
	body := fn.NewBlock("body")
	expensive := fn.NewBlock("expensive")
	epilog := fn.NewBlock("epilog")
	done := fn.NewBlock("done")

	bd.SetBlock(entry)
	tid := bd.Tid()
	i := bd.Reg()
	bd.ConstTo(i, 0)
	n := bd.Const(160)
	acc := bd.FConst(0)
	bd.Predict(expensive)
	bd.Br(header)

	bd.SetBlock(header)
	bd.CBr(bd.SetLT(i, n), body, done)

	bd.SetBlock(body)
	p := bd.FAddI(bd.ItoF(i), 0.5)
	take := bd.FSetLTI(bd.FRand(), 0.2)
	bd.CBr(take, expensive, epilog)

	bd.SetBlock(expensive)
	x := bd.FAddI(acc, 1.0)
	for k := 0; k < 20; k++ {
		x = bd.FMA(x, x, p)
		x = bd.FSqrt(bd.FAbs(x))
	}
	bd.FMovTo(acc, bd.FAdd(acc, x))
	bd.Br(epilog)

	bd.SetBlock(epilog)
	bd.MovTo(i, bd.AddI(i, 1))
	bd.Br(header)

	bd.SetBlock(done)
	bd.FStore(tid, 0, acc)
	bd.Exit()
	return mod
}

// annotatedSuite lists the Figure 7/8 benchmarks.
var annotatedSuite = []string{
	"rsbench", "xsbench", "mcb", "pathtracer", "mc-gpu", "mummer", "gpu-mcml", "callmicro",
}

// BenchmarkFig7 regenerates the Figure 7 bars: SIMT efficiency of the
// baseline and speculative builds for every annotated benchmark.
func BenchmarkFig7(b *testing.B) {
	for _, name := range annotatedSuite {
		name := name
		b.Run(name+"/baseline", func(b *testing.B) {
			inst := buildNamed(b, name)
			var eff float64
			for i := 0; i < b.N; i++ {
				eff = runOnce(b, inst, specrecon.BaselineOptions()).Metrics.SIMTEfficiency()
			}
			b.ReportMetric(100*eff, "simt_eff_%")
		})
		b.Run(name+"/specrecon", func(b *testing.B) {
			inst := buildNamed(b, name)
			var eff float64
			for i := 0; i < b.N; i++ {
				eff = runOnce(b, inst, specrecon.SpecReconOptions()).Metrics.SIMTEfficiency()
			}
			b.ReportMetric(100*eff, "simt_eff_%")
		})
	}
}

// BenchmarkFig8 regenerates the Figure 8 series: relative SIMT
// efficiency improvement and speedup per benchmark.
func BenchmarkFig8(b *testing.B) {
	for _, name := range annotatedSuite {
		name := name
		b.Run(name, func(b *testing.B) {
			inst := buildNamed(b, name)
			var effGain, speedup float64
			for i := 0; i < b.N; i++ {
				base := runOnce(b, inst, specrecon.BaselineOptions()).Metrics
				spec := runOnce(b, inst, specrecon.SpecReconOptions()).Metrics
				effGain = spec.SIMTEfficiency() / base.SIMTEfficiency()
				speedup = float64(base.Cycles) / float64(spec.Cycles)
			}
			b.ReportMetric(effGain, "eff_gain_x")
			b.ReportMetric(speedup, "speedup_x")
		})
	}
}

// BenchmarkFig9 regenerates the Figure 9 threshold sweeps for PathTracer
// and XSBench.
func BenchmarkFig9(b *testing.B) {
	for _, name := range []string{"pathtracer", "xsbench"} {
		name := name
		for _, t := range []int{1, 8, 16, 24, 32} {
			t := t
			b.Run(benchName(name, t), func(b *testing.B) {
				inst := buildNamed(b, name)
				base := runOnce(b, inst, specrecon.BaselineOptions()).Metrics
				var eff, speedup float64
				for i := 0; i < b.N; i++ {
					opts := specrecon.SpecReconOptions()
					opts.ThresholdOverride = t
					spec := runOnce(b, inst, opts).Metrics
					eff = spec.SIMTEfficiency()
					speedup = float64(base.Cycles) / float64(spec.Cycles)
				}
				b.ReportMetric(100*eff, "simt_eff_%")
				b.ReportMetric(speedup, "speedup_x")
			})
		}
	}
}

func benchName(name string, t int) string {
	return name + "/threshold=" + itoa(t)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig10 regenerates the automatic-detection upside bars and the
// section 5.4 population funnel.
func BenchmarkFig10(b *testing.B) {
	for _, name := range []string{"optix-ao", "optix-path", "optix-shadow", "meiyamd5"} {
		name := name
		b.Run(name, func(b *testing.B) {
			inst := buildNamed(b, name)
			var eff, speedup float64
			for i := 0; i < b.N; i++ {
				base := runOnce(b, inst, specrecon.BaselineOptions()).Metrics
				auto := inst.Module.Clone()
				specrecon.AutoAnnotate(auto)
				comp, err := specrecon.Compile(auto, specrecon.SpecReconOptions())
				if err != nil {
					b.Fatal(err)
				}
				res, err := specrecon.Run(comp.Module, specrecon.RunConfig{
					Kernel: inst.Kernel, Threads: inst.Threads, Seed: inst.Seed,
					Memory: inst.Memory, Strict: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				eff = res.Metrics.SIMTEfficiency()
				speedup = float64(base.Cycles) / float64(res.Metrics.Cycles)
			}
			b.ReportMetric(100*eff, "simt_eff_%")
			b.ReportMetric(speedup, "speedup_x")
		})
	}
	b.Run("funnel", func(b *testing.B) {
		var detected, significant int
		for i := 0; i < b.N; i++ {
			fr, err := specrecon.RunFunnel(520, 42)
			if err != nil {
				b.Fatal(err)
			}
			detected, significant = fr.Detected, fr.Significant
		}
		b.ReportMetric(float64(detected), "detected")
		b.ReportMetric(float64(significant), "significant")
	})
}

// BenchmarkAblation isolates the design choices DESIGN.md calls out:
// deconfliction strategy (section 4.3 discusses the static/dynamic
// tradeoff), warp scheduler policy, and the execution model (Volta ITS
// versus the pre-Volta reconvergence stack, where speculative
// reconvergence cannot be expressed).
func BenchmarkAblation(b *testing.B) {
	b.Run("deconfliction", func(b *testing.B) {
		for _, mode := range []struct {
			name string
			mode specrecon.CompileOptions
		}{
			{"dynamic", specrecon.SpecReconOptions()},
			{"static", func() specrecon.CompileOptions {
				o := specrecon.SpecReconOptions()
				o.Deconflict = specrecon.DeconflictStatic
				return o
			}()},
		} {
			mode := mode
			b.Run(mode.name, func(b *testing.B) {
				inst := buildNamed(b, "mcb")
				base := runOnce(b, inst, specrecon.BaselineOptions()).Metrics
				var speedup float64
				var issues int64
				for i := 0; i < b.N; i++ {
					m := runOnce(b, inst, mode.mode).Metrics
					speedup = float64(base.Cycles) / float64(m.Cycles)
					issues = m.Issues
				}
				b.ReportMetric(speedup, "speedup_x")
				b.ReportMetric(float64(issues), "sim_issues")
			})
		}
	})

	b.Run("policy", func(b *testing.B) {
		for _, pol := range []struct {
			name   string
			policy specrecon.RunConfig
		}{
			{"maxgroup", specrecon.RunConfig{Policy: specrecon.PolicyMaxGroup}},
			{"minpc", specrecon.RunConfig{Policy: specrecon.PolicyMinPC}},
			{"roundrobin", specrecon.RunConfig{Policy: specrecon.PolicyRoundRobin}},
		} {
			pol := pol
			b.Run(pol.name, func(b *testing.B) {
				inst := buildNamed(b, "mcb")
				comp, err := specrecon.Compile(inst.Module, specrecon.SpecReconOptions())
				if err != nil {
					b.Fatal(err)
				}
				var eff float64
				for i := 0; i < b.N; i++ {
					res, err := specrecon.Run(comp.Module, specrecon.RunConfig{
						Kernel: inst.Kernel, Threads: inst.Threads, Seed: inst.Seed,
						Memory: inst.Memory, Policy: pol.policy.Policy, Strict: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					eff = res.Metrics.SIMTEfficiency()
				}
				b.ReportMetric(100*eff, "simt_eff_%")
			})
		}
	})

	b.Run("engine", func(b *testing.B) {
		for _, eng := range []struct {
			name  string
			model specrecon.RunConfig
		}{
			{"its", specrecon.RunConfig{Model: specrecon.ModelITS}},
			{"prevolta-stack", specrecon.RunConfig{Model: specrecon.ModelStack}},
		} {
			eng := eng
			b.Run(eng.name, func(b *testing.B) {
				inst := buildNamed(b, "mcb")
				comp, err := specrecon.Compile(inst.Module, specrecon.SpecReconOptions())
				if err != nil {
					b.Fatal(err)
				}
				var eff float64
				var cycles int64
				for i := 0; i < b.N; i++ {
					res, err := specrecon.Run(comp.Module, specrecon.RunConfig{
						Kernel: inst.Kernel, Threads: inst.Threads, Seed: inst.Seed,
						Memory: inst.Memory, Model: eng.model.Model,
					})
					if err != nil {
						b.Fatal(err)
					}
					eff = res.Metrics.SIMTEfficiency()
					cycles = res.Metrics.Cycles
				}
				b.ReportMetric(100*eff, "simt_eff_%")
				b.ReportMetric(float64(cycles), "sim_cycles")
			})
		}
	})
}

// BenchmarkCompile measures the compiler pipeline itself — the pass
// machinery of Figures 4-6 — on each workload module, one sub-benchmark
// per pipeline so compile-time regressions are attributable to a pass.
// The verify-each variant prices the debug-mode inter-pass verifier.
func BenchmarkCompile(b *testing.B) {
	pipelines := []struct {
		name       string
		spec       string
		verifyEach bool
	}{
		{name: "baseline", spec: "pdom,alloc"},
		{name: "specrecon", spec: "pdom,predict,deconflict=dynamic,alloc"},
		{name: "specrecon-static", spec: "pdom,predict,deconflict=static,alloc"},
		{name: "specrecon-verify-each", spec: "pdom,predict,deconflict=dynamic,alloc", verifyEach: true},
	}
	for _, name := range annotatedSuite {
		name := name
		for _, pl := range pipelines {
			pl := pl
			b.Run(name+"/"+pl.name, func(b *testing.B) {
				inst := buildNamed(b, name)
				pipe, err := specrecon.ParsePipeline(pl.spec)
				if err != nil {
					b.Fatal(err)
				}
				pipe.VerifyEach = pl.verifyEach
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := specrecon.CompilePipeline(inst.Module, specrecon.SpecReconOptions(), pipe); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLaunchReuse measures the steady-state cost of relaunching
// one compilation — the inner loop of every sweep — through a reusable
// specrecon.Machine. The pre capture (testdata/bench_sweep_pre.txt) ran
// the same launches through fresh specrecon.Run calls; the arena keeps
// warp scratch, per-SM machines, event buffers and metrics alive, so
// allocs/op is the per-launch arena overhead, not the construction cost,
// and the 8-SM variant's bytes/op no longer scales with the full
// memory-image size (copy-on-write SM memory pays per dirty page).
func BenchmarkLaunchReuse(b *testing.B) {
	b.Run("flat", func(b *testing.B) {
		inst := buildNamed(b, "xsbench")
		comp, err := specrecon.Compile(inst.Module, specrecon.SpecReconOptions())
		if err != nil {
			b.Fatal(err)
		}
		cfg := specrecon.RunConfig{
			Kernel: inst.Kernel, Threads: inst.Threads, Seed: inst.Seed,
			Memory: inst.Memory, Strict: true,
		}
		m, err := specrecon.NewMachine(comp.Module, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sm8", func(b *testing.B) {
		w, err := specrecon.WorkloadByName("rsbench")
		if err != nil {
			b.Fatal(err)
		}
		inst := w.Build(specrecon.WorkloadConfig{Grid: 16, CTASize: 64, SMs: 8, Workers: 1})
		comp, err := specrecon.Compile(inst.Module, specrecon.SpecReconOptions())
		if err != nil {
			b.Fatal(err)
		}
		cfg := specrecon.RunConfig{
			Kernel: inst.Kernel, Seed: inst.Seed, Memory: inst.Memory, Strict: true,
			Grid: inst.Grid, CTASize: inst.CTASize, SMs: inst.SMs, Workers: inst.Workers,
		}
		m, err := specrecon.NewMachine(comp.Module, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// harnessJ bounds the worker pool of BenchmarkHarness
// (0 = GOMAXPROCS, 1 = serial):
//
//	go test -bench Harness -harness.j 8
var harnessJ = flag.Int("harness.j", 0, "worker-pool size for BenchmarkHarness (0 = GOMAXPROCS)")

// BenchmarkHarness measures the experiment drivers end to end — the
// paths `figures` and `make figures` spend their time in — under the
// worker pool. Parallel speedup only shows on multi-core machines; the
// results themselves are identical at any -harness.j.
func BenchmarkHarness(b *testing.B) {
	b.Run("figure7", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := specrecon.Figure7P(specrecon.WorkloadConfig{}, *harnessJ); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("figure9/pathtracer", func(b *testing.B) {
		thresholds := []int{1, 4, 8, 12, 16, 20, 24, 28, 32}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := specrecon.Figure9P("pathtracer", specrecon.WorkloadConfig{}, thresholds, *harnessJ); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("funnel60", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := specrecon.RunFunnelP(60, 42, *harnessJ); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGPUScale measures the GPU-scale engine: the speculative build
// of RSBench launched as a fixed 16-CTA grid while the SM count and the
// worker shards scale — the strong-scaling capture behind BENCH_6.json.
// Modeled sim_cycles drop as the CTAs spread over more SMs (each SM runs
// its share concurrently and the launch takes the slowest SM's cycles);
// wall-clock gains from -workers only appear on multi-core machines, and
// the results are byte-identical at any worker count.
func BenchmarkGPUScale(b *testing.B) {
	w, err := specrecon.WorkloadByName("rsbench")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		sms, workers int
	}{
		{"sm1", 1, 1},
		{"sm4-serial", 4, 1},
		{"sm4-sharded", 4, 4},
		{"sm8-sharded", 8, 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			inst := w.Build(specrecon.WorkloadConfig{
				Grid: 16, CTASize: 64, SMs: tc.sms, Workers: tc.workers,
			})
			comp, err := specrecon.Compile(inst.Module, specrecon.SpecReconOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var res *specrecon.RunResult
			for i := 0; i < b.N; i++ {
				res, err = specrecon.Run(comp.Module, specrecon.RunConfig{
					Kernel: inst.Kernel, Seed: inst.Seed, Memory: inst.Memory, Strict: true,
					Grid: inst.Grid, CTASize: inst.CTASize, SMs: inst.SMs, Workers: inst.Workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Metrics.Cycles), "sim_cycles")
			b.ReportMetric(float64(res.Metrics.TotalSMCycles), "total_sm_cycles")
			b.ReportMetric(100*res.Metrics.SIMTEfficiency(), "simt_eff_%")
		})
	}
}
