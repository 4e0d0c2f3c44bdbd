// Command figures regenerates every results figure of the paper:
//
//	figures -fig 7     SIMT efficiency before/after (annotated suite)
//	figures -fig 8     efficiency improvement vs speedup
//	figures -fig 9     soft-barrier threshold sweeps (PathTracer, XSBench)
//	figures -fig 10    automatic speculative reconvergence + 5.4 funnel
//	figures -fig all   everything, in order
//
// Output is plain text tables; EXPERIMENTS.md records a reference run and
// compares each against the paper's reported shape.
//
// Exit status: 0 on success, 1 when a figure fails, 2 on a usage error
// (an unknown flag, -fig, -policy or -sched value, or a positional
// argument).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"specrecon/internal/harness"
	"specrecon/internal/prof"
	"specrecon/internal/simt"
	"specrecon/internal/telemetry"
	"specrecon/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// figureNames lists the -fig values in the order -fig all prints them.
var figureNames = []string{"7", "8", "9", "10"}

// run is the command behind main: it parses args, prints the requested
// figures and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig       = fs.String("fig", "all", "7 | 8 | 9 | 10 | all")
		threads   = fs.Int("threads", 0, "thread count (0 = default)")
		apps      = fs.Int("apps", 520, "corpus size for the section 5.4 funnel")
		seed      = fs.Uint64("seed", 0, "workload seed (0 = default)")
		grid      = fs.Int("grid", 0, "CTAs in a grid launch (0 = flat single-SM launch; overrides -threads)")
		ctasize   = fs.Int("ctasize", 0, "threads per CTA for -grid (0 = one warp)")
		sms       = fs.Int("sms", 0, "streaming multiprocessors for -grid (0 = 1)")
		workers   = fs.Int("workers", 0, "goroutines simulating SMs (0 = serial; results are identical)")
		policy    = fs.String("policy", "maxgroup", "intra-warp group pick: maxgroup | minpc | roundrobin")
		sched     = fs.String("sched", "greedy", "warp scheduler: greedy | oldest | youngest | obe | random")
		schedSeed = fs.Uint64("sched-seed", 0, "seed for -sched random")
		markdown  = fs.Bool("markdown", false, "emit the full suite as markdown tables (EXPERIMENTS.md style)")
		traceDir  = fs.String("trace-dir", "", "also dump per-workload Perfetto traces (baseline and spec) into this directory")
		jobs      = fs.Int("j", 0, "worker-pool size for the experiment drivers (0 = GOMAXPROCS, 1 = serial)")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = fs.String("memprofile", "", "write a heap profile to this file")
		telemAddr = fs.String("telemetry-addr", "", "serve /metrics, /metrics.json and /healthz on this address while running")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "figures: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if *fig != "all" && !slices.Contains(figureNames, *fig) {
		return usage("unknown figure %q (want 7, 8, 9, 10 or all)", *fig)
	}
	pol, err := simt.ParsePolicy(*policy)
	if err != nil {
		return usage("%v", err)
	}
	sp, err := simt.ParseSchedPolicy(*sched)
	if err != nil {
		return usage("%v", err)
	}
	cfg := workloads.BuildConfig{
		Threads: *threads, Seed: *seed,
		Grid: *grid, CTASize: *ctasize, SMs: *sms, Workers: *workers,
		Policy: pol, Sched: sp, SchedSeed: *schedSeed,
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "figures: "+format+"\n", a...)
		return 1
	}

	if *telemAddr != "" {
		reg := telemetry.New()
		harness.UseTelemetry(reg)
		srv, err := telemetry.Serve(*telemAddr, reg)
		if err != nil {
			return fail("%v", err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "figures: telemetry on http://%s/metrics\n", srv.Addr())
	}

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		return fail("%v", err)
	}
	defer stopProf()

	if *markdown {
		if err := harness.WriteMarkdownReport(stdout, cfg, *apps, *jobs); err != nil {
			return fail("%v", err)
		}
	} else {
		figures := map[string]func() error{
			"7":  func() error { return figure7(stdout, cfg, *jobs) },
			"8":  func() error { return figure8(stdout, cfg, *jobs) },
			"9":  func() error { return figure9(stdout, cfg, *jobs) },
			"10": func() error { return figure10(stdout, cfg, *apps, *jobs) },
		}
		for _, name := range figureNames {
			if *fig != "all" && *fig != name {
				continue
			}
			if err := figures[name](); err != nil {
				return fail("figure %s: %v", name, err)
			}
		}
	}
	if *traceDir != "" {
		paths, err := harness.DumpTraces(*traceDir, cfg, *jobs)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "wrote %d traces to %s (open in ui.perfetto.dev)\n", len(paths), *traceDir)
	}
	return 0
}

func figure7(w io.Writer, cfg workloads.BuildConfig, jobs int) error {
	rows, err := harness.Figure7(cfg, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 7: SIMT efficiency, programmer-annotated applications")
	fmt.Fprintln(w, "  (paper: significant increases after moving reconvergence points)")
	fmt.Fprintf(w, "  %-12s %-16s %10s %10s %10s\n", "benchmark", "pattern", "base eff", "spec eff", "threshold")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %-16s %9.1f%% %9.1f%% %10d\n",
			r.Name, r.Pattern, 100*r.BaseEff, 100*r.SpecEff, r.Threshold)
	}
	fmt.Fprintln(w)
	return nil
}

func figure8(w io.Writer, cfg workloads.BuildConfig, jobs int) error {
	rows, err := harness.Figure8(cfg, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 8: SIMT efficiency improvement versus speedup")
	fmt.Fprintln(w, "  (paper: improvements 10% to 3x; efficiency gain roughly upper-bounds speedup)")
	fmt.Fprintf(w, "  %-12s %14s %10s\n", "benchmark", "eff improvement", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %13.2fx %9.2fx\n", r.Name, r.EffImprovement(), r.Speedup())
	}
	fmt.Fprintln(w)
	return nil
}

func figure9(w io.Writer, cfg workloads.BuildConfig, jobs int) error {
	thresholds := []int{1, 4, 8, 12, 16, 20, 24, 28, 30, 32}
	fmt.Fprintln(w, "Figure 9: SIMT efficiency and speedup with soft barrier")
	fmt.Fprintln(w, "  threshold = lanes that must collect before the cohort proceeds")
	for _, name := range []string{"pathtracer", "xsbench"} {
		pts, err := harness.Figure9(name, cfg, thresholds, jobs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s:\n", name)
		fmt.Fprintf(w, "    %9s %10s %10s\n", "threshold", "simt eff", "speedup")
		for _, p := range pts {
			fmt.Fprintf(w, "    %9d %9.1f%% %9.2fx\n", p.Threshold, 100*p.Eff, p.Speedup)
		}
	}
	fmt.Fprintln(w)
	return nil
}

func figure10(w io.Writer, cfg workloads.BuildConfig, apps, jobs int) error {
	rows, err := harness.Figure10(cfg, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 10: automatic speculative reconvergence")
	fmt.Fprintf(w, "  %-13s %10s %10s %10s\n", "kernel", "base eff", "auto eff", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-13s %9.1f%% %9.1f%% %9.2fx\n", r.Name, 100*r.BaseEff, 100*r.SpecEff, r.Speedup())
	}

	funnel, err := harness.RunFunnel(apps, 42, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nSection 5.4 application-population funnel")
	fmt.Fprintf(w, "  studied applications:        %4d   (paper: 520)\n", funnel.Studied)
	fmt.Fprintf(w, "  SIMT efficiency < 80%%:       %4d   (paper: 75)\n", funnel.LowEff)
	fmt.Fprintf(w, "  non-trivial opportunity:     %4d   (paper: 16)\n", funnel.Detected)
	fmt.Fprintf(w, "  significant improvement:     %4d   (paper: 5)\n", funnel.Significant)
	fmt.Fprintf(w, "  regressions among detected:  %4d   (paper: \"many ... see no change or even regression\")\n", funnel.Regressed)
	fmt.Fprintln(w)
	return nil
}
