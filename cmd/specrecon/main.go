// Command specrecon compiles and runs one kernel on the SIMT simulator,
// reporting SIMT efficiency and timing for the baseline and
// speculative-reconvergence builds.
//
// The kernel is either a bundled benchmark name (see -list) or a path to
// a .sasm file in the textual IR format (ir.Parse); annotations travel in
// .predict directives.
//
// Examples:
//
//	specrecon -kernel rsbench
//	specrecon -kernel rsbench -mode spec -threshold 24 -print
//	specrecon -kernel mykernel.sasm -mode auto
//	specrecon -kernel pathtracer -mode spec -profile -trace-out pt.trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"specrecon/internal/analyze"
	"specrecon/internal/core"
	"specrecon/internal/diffcheck"
	"specrecon/internal/harness"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/prof"
	"specrecon/internal/simt"
	"specrecon/internal/telemetry"
	"specrecon/internal/workloads"
)

func main() {
	var (
		kernel     = flag.String("kernel", "", "workload name or .sasm file")
		mode       = flag.String("mode", "both", "baseline | spec | auto | both")
		threshold  = flag.Int("threshold", -1, "override soft-barrier threshold (0=hard, 1..32=soft, -1=per-annotation)")
		deconf     = flag.String("deconflict", "dynamic", "dynamic | static | none")
		policy     = flag.String("policy", "maxgroup", "group-pick policy: maxgroup | minpc | roundrobin")
		sched      = flag.String("sched", "greedy", "warp scheduler: greedy | oldest | youngest | obe | random (non-greedy requires the ITS engine)")
		schedSeed  = flag.Uint64("sched-seed", 0, "seed for -sched random")
		starveLim  = flag.Int64("starve-limit", 0, "fail with a StarvationError when a runnable warp goes unissued this many cycles (0 = off)")
		wallBudget = flag.Duration("wall-budget", 0, "fail with a WatchdogError when a run exceeds this wall-clock budget (0 = off)")
		model      = flag.String("model", "its", "execution engine: its (Volta) | stack (pre-Volta)")
		interleave = flag.Bool("interleave", false, "interleave warps issue-by-issue (ITS engine only)")
		threads    = flag.Int("threads", 0, "thread count (0 = workload default)")
		tasks      = flag.Int("tasks", 0, "tasks per thread (0 = workload default)")
		grid       = flag.Int("grid", 0, "CTAs in a grid launch (0 = flat single-SM launch; overrides -threads)")
		ctasize    = flag.Int("ctasize", 0, "threads per CTA for -grid (0 = one warp)")
		sms        = flag.Int("sms", 0, "streaming multiprocessors for -grid (0 = 1)")
		workers    = flag.Int("workers", 0, "goroutines simulating SMs (0 = serial; results are identical)")
		seed       = flag.Uint64("seed", 0, "seed (0 = workload default)")
		printIR    = flag.Bool("print", false, "print the compiled IR")
		dot        = flag.Bool("dot", false, "print the compiled kernel's CFG in Graphviz dot syntax")
		lint       = flag.Bool("lint", false, "run static diagnostics on the input module (warnings and errors only; see -diagnostics)")
		diagFlag   = flag.Bool("diagnostics", false, "run the full static analyzer on the input module: coded diagnostics (SRxxxx), severities and static SIMT-efficiency estimates")
		sweep      = flag.Bool("sweep", false, "sweep the soft-barrier threshold 1..32 and report eff/speedup")
		list       = flag.Bool("list", false, "list bundled workloads")

		diffFlag = flag.Bool("diffcheck", false, "differentially check the kernel (baseline vs speculative) and exit; honors `; repro-*` directives in .sasm files")
		inject   = flag.String("inject", "", "inject faults into the speculative build/run (e.g. \"drop-cancel@1+skip-release@2\"; see diffcheck.ParseFault)")
		safe     = flag.Bool("safe", false, "compile non-baseline modes through the fail-safe pipeline (verifier + PDOM fallback)")

		passes     = flag.String("passes", "", "override the pass pipeline with a spec string (e.g. \"pdom,predict,deconflict=dynamic,alloc\")")
		dumpAfter  = flag.String("dump-ir-after", "", "print the IR after the named pass")
		passStats  = flag.Bool("print-pass-stats", false, "print per-pass wall time, instruction deltas and barrier counts")
		verifyEach = flag.Bool("verify-each", false, "verify the module after every pass, attributing breakage to the pass")
		remarks    = flag.Bool("remarks", false, "print the optimization remarks stream")
		listPasses = flag.Bool("list-passes", false, "list registered compiler passes")

		profile     = flag.Bool("profile", false, "print the nvprof-style per-PC profile after each run")
		profileTop  = flag.Int("profile-top", 10, "rows in the -profile hot-spot table")
		profileJSON = flag.String("profile-json", "", "write the machine-readable profile dump to this file")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON (open in ui.perfetto.dev) to this file")

		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a heap profile to this file")

		sampleStride = flag.Int64("sample-stride", 0, "sample per-SM occupancy/stall attribution every N issue passes (0 = off); prints the occupancy report per run and feeds counter tracks into -trace-out")
		telemAddr    = flag.String("telemetry-addr", "", "serve /metrics, /metrics.json and /healthz on this address while running")
		telemJSON    = flag.String("telemetry-json", "", "write the final telemetry snapshot as JSON to this file (\"-\" for stderr)")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fail(err)
	}
	defer stopProf()
	profStop = stopProf

	if *telemAddr != "" || *telemJSON != "" {
		telemReg = telemetry.New()
	}
	if *telemAddr != "" {
		srv, err := telemetry.Serve(*telemAddr, telemReg)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "specrecon: telemetry on http://%s/metrics\n", srv.Addr())
	}
	if *telemJSON != "" {
		// Written on the way out so the snapshot covers every run.
		defer func() {
			w := os.Stderr
			if *telemJSON != "-" {
				f, err := os.Create(*telemJSON)
				if err != nil {
					fmt.Fprintf(os.Stderr, "specrecon: %v\n", err)
					return
				}
				defer f.Close()
				w = f
			}
			if err := telemReg.WriteJSON(w); err != nil {
				fmt.Fprintf(os.Stderr, "specrecon: %v\n", err)
			}
		}()
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-14s %-16s %s\n", w.Name, w.Pattern, w.Description)
		}
		return
	}
	if *listPasses {
		for _, info := range core.RegisteredPasses() {
			kind := "transform"
			if info.Analysis {
				kind = "analysis"
			}
			fmt.Printf("%-11s %-9s %s\n", info.Name, kind, info.Description)
		}
		return
	}
	if *kernel == "" {
		fmt.Fprintln(os.Stderr, "specrecon: -kernel is required (try -list)")
		os.Exit(2)
	}

	launch := workloads.BuildConfig{
		Threads: *threads, Tasks: *tasks, Seed: *seed,
		Grid: *grid, CTASize: *ctasize, SMs: *sms, Workers: *workers,
	}
	inst, err := loadInstance(*kernel, launch)
	if err != nil {
		fail(err)
	}

	if *lint || *diagFlag {
		// Both paths run the static analyzer as a read-only pass over a
		// single-pass pipeline; -lint keeps the historical
		// warnings-and-above view, -diagnostics shows the full coded
		// report plus static efficiency estimates.
		dpipe, err := core.ParsePipeline("analyze")
		if err != nil {
			fail(err)
		}
		dcomp, err := core.CompilePipeline(inst.Module, core.Options{SkipAllocation: true}, dpipe)
		if err != nil {
			fail(err)
		}
		diags := dcomp.Diagnostics
		if !*diagFlag {
			diags = analyze.Filter(diags, analyze.SeverityWarning)
		}
		if len(diags) == 0 {
			fmt.Println("diagnostics: clean")
		}
		for _, d := range diags {
			fmt.Printf("%s: %s\n", d.Severity, d)
		}
		if *diagFlag {
			kernels := make([]string, 0, len(dcomp.StaticEff))
			for name := range dcomp.StaticEff {
				kernels = append(kernels, name)
			}
			sort.Strings(kernels)
			for _, name := range kernels {
				fmt.Printf("static-eff %s: %.1f%%\n", name, dcomp.StaticEff[name]*100)
			}
		}
	}

	pol, err := simt.ParsePolicy(*policy)
	if err != nil {
		fail(err)
	}
	sp, err := simt.ParseSchedPolicy(*sched)
	if err != nil {
		fail(err)
	}
	dec, err := parseDeconflict(*deconf)
	if err != nil {
		fail(err)
	}
	eng, err := parseModel(*model)
	if err != nil {
		fail(err)
	}

	faultPlan, skipRelease, err := diffcheck.ParseFault(*inject)
	if err != nil {
		fail(err)
	}

	if *diffFlag {
		cli := diffcheck.ReproOpts{
			Sched: sp, SchedSeed: *schedSeed, Policy: pol, StarveLimit: *starveLim,
		}
		if err := runDiffcheck(*kernel, inst, *inject, dec, *threshold, cli, *wallBudget); err != nil {
			fail(err)
		}
		return
	}

	if *sweep {
		if err := runSweep(inst, pol, dec); err != nil {
			fail(err)
		}
		return
	}

	modes := []string{*mode}
	if *mode == "both" {
		modes = []string{"baseline", "spec"}
	}
	var baseCycles int64
	dumped := false
	for _, mo := range modes {
		opts, mod, err := optionsFor(mo, inst, dec, *threshold)
		if err != nil {
			fail(err)
		}
		if mo != "baseline" {
			// The baseline is the reference; faults only ever perturb the
			// speculative side.
			opts.Faults = faultPlan
		}
		var comp *core.Compilation
		if *safe && mo != "baseline" {
			sc, err := core.CompileSafe(mod, opts)
			if err != nil {
				fail(err)
			}
			if sc.FellBack {
				reason, _, _ := strings.Cut(sc.FallbackErr.Error(), "\n")
				fmt.Printf("%-9s failsafe: fell back to PDOM baseline: %s\n", mo+":", reason)
			}
			comp = sc.Compilation
		} else {
			pipe := core.PipelineFor(opts)
			if *passes != "" {
				if pipe, err = core.ParsePipeline(*passes); err != nil {
					fail(err)
				}
			}
			pipe.VerifyEach = *verifyEach
			if *dumpAfter != "" {
				mode := mo
				pipe.Observer = func(pass string, m *ir.Module) {
					if pass == *dumpAfter {
						dumped = true
						fmt.Printf("; %s: IR after pass %q\n%s", mode, pass, ir.Print(m))
					}
				}
			}
			if comp, err = core.CompilePipeline(mod, opts, pipe); err != nil {
				fail(err)
			}
		}
		if *passStats {
			printPassStats(mo, comp)
		}
		if *remarks {
			for _, r := range comp.Remarks {
				fmt.Println(r)
			}
		}
		if *printIR {
			fmt.Println(ir.Print(comp.Module))
		}
		if *dot {
			fmt.Println(ir.DOT(comp.Module.FuncByName(inst.Kernel)))
		}
		// Observability sinks: the profiler indexes counters by the
		// compiled module's PC numbering, so both attach per mode, after
		// compilation.
		var sinks []simt.EventSink
		var pcProf *obs.Profile
		var rec *obs.TraceRecorder
		var occ *obs.OccupancyRecorder
		if *profile || *profileJSON != "" {
			pcProf = obs.NewProfile(comp.Module)
			sinks = append(sinks, pcProf)
		}
		if *traceOut != "" {
			rec = obs.NewTraceRecorder()
			sinks = append(sinks, rec)
		}
		if *sampleStride > 0 {
			occ = obs.NewOccupancyRecorder()
		}
		runCfg := simt.Config{
			Kernel:          inst.Kernel,
			Threads:         inst.Threads,
			Seed:            inst.Seed,
			Memory:          inst.Memory,
			Policy:          pol,
			Sched:           sp,
			SchedSeed:       *schedSeed,
			StarveLimit:     *starveLim,
			WallBudget:      *wallBudget,
			Model:           eng,
			InterleaveWarps: *interleave,
			Strict:          eng == simt.ModelITS,
			Events:          simt.TeeSinks(sinks...),
			Grid:            inst.Grid,
			CTASize:         inst.CTASize,
			SMs:             inst.SMs,
			Workers:         inst.Workers,
		}
		if mo != "baseline" {
			runCfg.SkipReleaseN = skipRelease
		}
		if occ != nil {
			runCfg.SampleStride = *sampleStride
			smpSinks := []simt.SampleSink{occ}
			if rec != nil {
				// The trace recorder turns samples into Perfetto counter
				// tracks alongside its event slices.
				smpSinks = append(smpSinks, rec)
			}
			runCfg.Samples = simt.TeeSampleSinks(smpSinks...)
		}
		res, err := simt.Run(comp.Module, runCfg)
		if err != nil {
			fail(err)
		}
		m := res.Metrics
		fmt.Printf("%-9s simt_eff=%5.1f%%  cycles=%-10d issues=%-9d mem_tx=%-8d conflicts=%d\n",
			mo+":", 100*m.SIMTEfficiency(), m.Cycles, m.Issues, m.MemTransactions, len(comp.Conflicts))
		if mo == "baseline" {
			baseCycles = m.Cycles
		} else if baseCycles > 0 {
			fmt.Printf("          speedup over baseline: %.2fx\n", float64(baseCycles)/float64(m.Cycles))
		}
		if *profile {
			fmt.Printf("\n%s profile:\n\n", mo)
			if err := pcProf.WriteMarkdown(os.Stdout, *profileTop); err != nil {
				fail(err)
			}
		}
		if occ != nil {
			fmt.Printf("\n%s occupancy (stride %d, %d samples):\n\n", mo, *sampleStride, occ.Len())
			if err := occ.WriteMarkdown(os.Stdout); err != nil {
				fail(err)
			}
			if telemReg != nil {
				harness.PublishOccupancy(telemReg, *kernel+"/"+mo, occ.PerSM())
			}
		}
		if *profileJSON != "" {
			if err := writeTo(modeSuffixed(*profileJSON, mo, len(modes) > 1), pcProf.WriteJSON); err != nil {
				fail(err)
			}
		}
		if *traceOut != "" {
			if err := writeTo(modeSuffixed(*traceOut, mo, len(modes) > 1), rec.WriteTrace); err != nil {
				fail(err)
			}
		}
	}
	if *dumpAfter != "" && !dumped {
		fmt.Fprintf(os.Stderr, "specrecon: -dump-ir-after=%q never fired (pass not in pipeline; see -list-passes)\n", *dumpAfter)
	}
}

// modeSuffixed inserts "-<mode>" before path's extension when a run
// covers several modes, so -mode both writes distinct artifacts.
func modeSuffixed(path, mode string, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + mode + ext
}

// writeTo streams render into a freshly created file.
func writeTo(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printPassStats renders the per-pass instrumentation table behind
// -print-pass-stats.
func printPassStats(mode string, comp *core.Compilation) {
	fmt.Printf("%s pipeline: %s (compile %s)\n", mode, comp.Pipeline, comp.CompileTime.Round(time.Microsecond))
	fmt.Printf("  %-11s %10s %8s %8s %8s %7s %8s\n", "pass", "time", "instrs", "Δinstrs", "bar-ops", "minted", "remarks")
	for _, s := range comp.PassStats {
		fmt.Printf("  %-11s %10s %8d %+8d %8d %7d %8d\n",
			s.Pass, s.Wall.Round(time.Microsecond), s.InstrsAfter, s.InstrDelta(), s.BarrierOpsAfter, s.BarriersMinted, s.Remarks)
	}
}

// runDiffcheck runs the differential checker on the loaded kernel and
// exits non-zero on a finding. For .sasm files the repro directives
// (threads, seed, memory, recorded fault, recorded scheduler) are
// honored; a -inject spec or non-default scheduler flag on the command
// line overrides the corresponding recorded value.
func runDiffcheck(path string, inst *workloads.Instance, inject string, dec core.DeconflictMode, threshold int, cli diffcheck.ReproOpts, wallBudget time.Duration) error {
	k := diffcheck.Kernel{
		Name: inst.Module.Name, Module: inst.Module, Entry: inst.Kernel,
		Threads: inst.Threads, Memory: inst.Memory, Seed: inst.Seed,
		Grid: inst.Grid, CTASize: inst.CTASize, SMs: inst.SMs, Workers: inst.Workers,
	}
	fault := inject
	replay := cli
	if strings.HasSuffix(path, ".sasm") {
		loaded, recorded, err := diffcheck.LoadRepro(path)
		if err != nil {
			return err
		}
		k = loaded
		if fault == "" {
			fault = recorded.Fault
		}
		if cli.Sched == simt.SchedGreedyConverge {
			replay.Sched, replay.SchedSeed = recorded.Sched, recorded.SchedSeed
		}
		if cli.Policy == simt.PolicyMaxGroup {
			replay.Policy = recorded.Policy
		}
		if cli.StarveLimit == 0 {
			replay.StarveLimit = recorded.StarveLimit
		}
	}
	plan, skipRelease, err := diffcheck.ParseFault(fault)
	if err != nil {
		return err
	}
	res := diffcheck.Check(k, replay.Apply(diffcheck.Options{
		ThresholdOverride: threshold,
		Deconflict:        dec,
		AutoAnnotate:      true,
		Faults:            plan,
		SkipReleaseN:      skipRelease,
		WallBudget:        wallBudget,
	}))
	if res.OK {
		fmt.Printf("diffcheck: ok (base cycles %d, spec cycles %d)\n",
			res.BaseMetrics.Cycles, res.SpecMetrics.Cycles)
		return nil
	}
	fmt.Printf("diffcheck: FAIL at %s: %v\n", res.Stage, res.Err)
	os.Exit(1)
	return nil
}

// runSweep measures the kernel across soft-barrier thresholds.
func runSweep(inst *workloads.Instance, pol simt.Policy, dec core.DeconflictMode) error {
	runAt := func(opts core.Options) (*simt.Metrics, error) {
		comp, err := core.Compile(inst.Module, opts)
		if err != nil {
			return nil, err
		}
		res, err := simt.Run(comp.Module, simt.Config{
			Kernel: inst.Kernel, Threads: inst.Threads, Seed: inst.Seed,
			Memory: inst.Memory, Policy: pol, Strict: true,
			Grid: inst.Grid, CTASize: inst.CTASize, SMs: inst.SMs, Workers: inst.Workers,
		})
		if err != nil {
			return nil, err
		}
		return &res.Metrics, nil
	}
	base, err := runAt(core.BaselineOptions())
	if err != nil {
		return err
	}
	fmt.Printf("baseline: eff %5.1f%%  cycles %d\n", 100*base.SIMTEfficiency(), base.Cycles)
	fmt.Printf("%9s %10s %10s\n", "threshold", "simt eff", "speedup")
	for _, t := range []int{1, 4, 8, 12, 16, 20, 24, 28, 30, 32} {
		opts := core.SpecReconOptions()
		opts.Deconflict = dec
		opts.ThresholdOverride = t
		m, err := runAt(opts)
		if err != nil {
			return fmt.Errorf("threshold %d: %w", t, err)
		}
		fmt.Printf("%9d %9.1f%% %9.2fx\n", t, 100*m.SIMTEfficiency(), float64(base.Cycles)/float64(m.Cycles))
	}
	return nil
}

func loadInstance(kernel string, cfg workloads.BuildConfig) (*workloads.Instance, error) {
	if strings.HasSuffix(kernel, ".sasm") {
		src, err := os.ReadFile(kernel)
		if err != nil {
			return nil, err
		}
		mod, err := ir.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kernel, err)
		}
		threads := cfg.Threads
		if threads == 0 {
			threads = ir.WarpWidth
		}
		return &workloads.Instance{
			Module:  mod,
			Kernel:  mod.Funcs[0].Name,
			Threads: threads,
			Seed:    cfg.Seed,
			Grid:    cfg.Grid,
			CTASize: cfg.CTASize,
			SMs:     cfg.SMs,
			Workers: cfg.Workers,
		}, nil
	}
	w, err := workloads.Get(kernel)
	if err != nil {
		return nil, err
	}
	return w.Build(cfg), nil
}

// optionsFor returns the compile options and the module to compile for a
// mode. Auto mode strips manual annotations and runs the detector.
func optionsFor(mode string, inst *workloads.Instance, dec core.DeconflictMode, threshold int) (core.Options, *ir.Module, error) {
	switch mode {
	case "baseline":
		return core.BaselineOptions(), inst.Module, nil
	case "spec":
		opts := core.SpecReconOptions()
		opts.Deconflict = dec
		opts.ThresholdOverride = threshold
		return opts, inst.Module, nil
	case "auto":
		mod := inst.Module.Clone()
		for _, f := range mod.Funcs {
			f.Predictions = nil
		}
		applied := core.AutoAnnotate(mod, core.DefaultAutoDetectOptions())
		for _, c := range applied {
			fmt.Printf("auto: %s candidate at=%s label=%s score=%.1f\n", c.Kind, c.At.Name, c.Label.Name, c.Score())
		}
		opts := core.SpecReconOptions()
		opts.Deconflict = dec
		opts.ThresholdOverride = threshold
		return opts, mod, nil
	}
	return core.Options{}, nil, fmt.Errorf("unknown mode %q", mode)
}

func parseModel(s string) (simt.Model, error) {
	switch s {
	case "its":
		return simt.ModelITS, nil
	case "stack":
		return simt.ModelStack, nil
	}
	return 0, fmt.Errorf("unknown model %q", s)
}

func parseDeconflict(s string) (core.DeconflictMode, error) {
	switch s {
	case "dynamic":
		return core.DeconflictDynamic, nil
	case "static":
		return core.DeconflictStatic, nil
	case "none":
		return core.DeconflictNone, nil
	}
	return 0, fmt.Errorf("unknown deconfliction mode %q", s)
}

// profStop finishes any active profiles before fail's os.Exit, which
// would otherwise skip the deferred stop in main.
var profStop = func() {}

// telemReg is the optional metrics registry behind -telemetry-addr and
// -telemetry-json; nil when neither flag is given.
var telemReg *telemetry.Registry

func fail(err error) {
	profStop()
	fmt.Fprintln(os.Stderr, "specrecon:", err)
	os.Exit(1)
}
