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
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"specrecon/internal/harness"
	"specrecon/internal/prof"
	"specrecon/internal/simt"
	"specrecon/internal/telemetry"
	"specrecon/internal/workloads"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "7 | 8 | 9 | 10 | all")
		threads    = flag.Int("threads", 0, "thread count (0 = default)")
		apps       = flag.Int("apps", 520, "corpus size for the section 5.4 funnel")
		seed       = flag.Uint64("seed", 0, "workload seed (0 = default)")
		grid       = flag.Int("grid", 0, "CTAs in a grid launch (0 = flat single-SM launch; overrides -threads)")
		ctasize    = flag.Int("ctasize", 0, "threads per CTA for -grid (0 = one warp)")
		sms        = flag.Int("sms", 0, "streaming multiprocessors for -grid (0 = 1)")
		workers    = flag.Int("workers", 0, "goroutines simulating SMs (0 = serial; results are identical)")
		policy     = flag.String("policy", "maxgroup", "intra-warp group pick: maxgroup | minpc | roundrobin")
		sched      = flag.String("sched", "greedy", "warp scheduler: greedy | oldest | youngest | obe | random")
		schedSeed  = flag.Uint64("sched-seed", 0, "seed for -sched random")
		markdown   = flag.Bool("markdown", false, "emit the full suite as markdown tables (EXPERIMENTS.md style)")
		traceDir   = flag.String("trace-dir", "", "also dump per-workload Perfetto traces (baseline and spec) into this directory")
		jobs       = flag.Int("j", 0, "worker-pool size for the experiment drivers (0 = GOMAXPROCS, 1 = serial)")
		cpuprof    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof    = flag.String("memprofile", "", "write a heap profile to this file")
		telemAddr  = flag.String("telemetry-addr", "", "serve /metrics, /metrics.json and /healthz on this address while running")
		ledgerPath = flag.String("ledger", "", "append a run record (wall time and registry metrics) to this JSONL ledger")
	)
	flag.Parse()
	pol, err := simt.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	sp, err := simt.ParseSchedPolicy(*sched)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	cfg := workloads.BuildConfig{
		Threads: *threads, Seed: *seed,
		Grid: *grid, CTASize: *ctasize, SMs: *sms, Workers: *workers,
		Policy: pol, Sched: sp, SchedSeed: *schedSeed,
	}

	var reg *telemetry.Registry
	if *telemAddr != "" || *ledgerPath != "" {
		reg = telemetry.New()
		harness.UseTelemetry(reg)
	}
	if *telemAddr != "" {
		srv, err := telemetry.Serve(*telemAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "figures: telemetry on http://%s/metrics\n", srv.Addr())
	}
	started := time.Now()

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	defer stopProf()

	dumpTraces := func() {
		if *traceDir == "" {
			return
		}
		paths, err := harness.DumpTraces(*traceDir, cfg, *jobs)
		if err != nil {
			stopProf()
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d traces to %s (open in ui.perfetto.dev)\n", len(paths), *traceDir)
	}

	// finish appends the run-ledger record both exit paths share.
	finish := func() {
		if *ledgerPath != "" {
			rec := telemetry.RunRecord{
				Time:    telemetry.NowRFC3339(),
				Tool:    "figures",
				GitRev:  telemetry.GitRev(),
				Config:  telemetry.Fingerprint(cfg),
				Metrics: reg.LedgerMetrics(),
			}
			rec.Metrics["wall_seconds"] = time.Since(started).Seconds()
			if err := telemetry.AppendRecord(*ledgerPath, rec); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "figures: appended run record (%d metrics) to %s\n",
				len(rec.Metrics), *ledgerPath)
		}
	}

	if *markdown {
		if err := harness.WriteMarkdownReport(os.Stdout, cfg, *apps, *jobs); err != nil {
			stopProf()
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		dumpTraces()
		finish()
		return
	}

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			stopProf()
			fmt.Fprintf(os.Stderr, "figures: figure %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("7", func() error { return figure7(cfg, *jobs) })
	run("8", func() error { return figure8(cfg, *jobs) })
	run("9", func() error { return figure9(cfg, *jobs) })
	run("10", func() error { return figure10(cfg, *apps, *jobs) })
	dumpTraces()
	finish()
}

func figure7(cfg workloads.BuildConfig, jobs int) error {
	rows, err := harness.Figure7(cfg, jobs)
	if err != nil {
		return err
	}
	fmt.Println("Figure 7: SIMT efficiency, programmer-annotated applications")
	fmt.Println("  (paper: significant increases after moving reconvergence points)")
	fmt.Printf("  %-12s %-16s %10s %10s %10s\n", "benchmark", "pattern", "base eff", "spec eff", "threshold")
	for _, r := range rows {
		fmt.Printf("  %-12s %-16s %9.1f%% %9.1f%% %10d\n",
			r.Name, r.Pattern, 100*r.BaseEff, 100*r.SpecEff, r.Threshold)
	}
	fmt.Println()
	return nil
}

func figure8(cfg workloads.BuildConfig, jobs int) error {
	rows, err := harness.Figure8(cfg, jobs)
	if err != nil {
		return err
	}
	fmt.Println("Figure 8: SIMT efficiency improvement versus speedup")
	fmt.Println("  (paper: improvements 10% to 3x; efficiency gain roughly upper-bounds speedup)")
	fmt.Printf("  %-12s %14s %10s\n", "benchmark", "eff improvement", "speedup")
	for _, r := range rows {
		fmt.Printf("  %-12s %13.2fx %9.2fx\n", r.Name, r.EffImprovement(), r.Speedup())
	}
	fmt.Println()
	return nil
}

func figure9(cfg workloads.BuildConfig, jobs int) error {
	thresholds := []int{1, 4, 8, 12, 16, 20, 24, 28, 30, 32}
	fmt.Println("Figure 9: SIMT efficiency and speedup with soft barrier")
	fmt.Println("  threshold = lanes that must collect before the cohort proceeds")
	for _, name := range []string{"pathtracer", "xsbench"} {
		pts, err := harness.Figure9(name, cfg, thresholds, jobs)
		if err != nil {
			return err
		}
		fmt.Printf("  %s:\n", name)
		fmt.Printf("    %9s %10s %10s\n", "threshold", "simt eff", "speedup")
		for _, p := range pts {
			fmt.Printf("    %9d %9.1f%% %9.2fx\n", p.Threshold, 100*p.Eff, p.Speedup)
		}
	}
	fmt.Println()
	return nil
}

func figure10(cfg workloads.BuildConfig, apps, jobs int) error {
	rows, err := harness.Figure10(cfg, jobs)
	if err != nil {
		return err
	}
	fmt.Println("Figure 10: automatic speculative reconvergence")
	fmt.Printf("  %-13s %10s %10s %10s\n", "kernel", "base eff", "auto eff", "speedup")
	for _, r := range rows {
		fmt.Printf("  %-13s %9.1f%% %9.1f%% %9.2fx\n", r.Name, 100*r.BaseEff, 100*r.SpecEff, r.Speedup())
	}

	funnel, err := harness.RunFunnel(apps, 42, jobs)
	if err != nil {
		return err
	}
	fmt.Println("\nSection 5.4 application-population funnel")
	fmt.Printf("  studied applications:        %4d   (paper: 520)\n", funnel.Studied)
	fmt.Printf("  SIMT efficiency < 80%%:       %4d   (paper: 75)\n", funnel.LowEff)
	fmt.Printf("  non-trivial opportunity:     %4d   (paper: 16)\n", funnel.Detected)
	fmt.Printf("  significant improvement:     %4d   (paper: 5)\n", funnel.Significant)
	fmt.Printf("  regressions among detected:  %4d   (paper: \"many ... see no change or even regression\")\n", funnel.Regressed)
	fmt.Println()
	return nil
}
