package harness

import (
	"fmt"
	"io"
	"strings"

	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// WriteMarkdownReport runs the full experiment suite and writes the
// results as the markdown tables EXPERIMENTS.md is built from:
// Figures 7, 8, 9, 10 and the section 5.4 funnel. cmd/figures exposes it
// behind -markdown. parallelism bounds each experiment's worker pool
// (0 = GOMAXPROCS); the emitted tables are identical at any setting.
func WriteMarkdownReport(out io.Writer, cfg workloads.BuildConfig, funnelApps, parallelism int) error {
	rows, err := Figure7(cfg, parallelism)
	if err != nil {
		return fmt.Errorf("figure 7: %w", err)
	}
	fmt.Fprintln(out, "## Figure 7 — SIMT efficiency, programmer-annotated applications")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| benchmark | pattern | base eff | spec eff | static eff | threshold | diagnostics | fallback |")
	fmt.Fprintln(out, "|-----------|---------|---------:|---------:|-----------:|----------:|-------------|----------|")
	for _, r := range rows {
		threshold := "hard"
		if r.Threshold > 0 {
			threshold = fmt.Sprintf("%d", r.Threshold)
		}
		fallback := "—"
		switch {
		case r.FellBack:
			fallback = "PDOM: " + r.FallbackReason
		case r.Repaired:
			fallback = "repaired: " + r.RepairSummary
		}
		diags := "—"
		if len(r.DiagCodes) > 0 {
			diags = strings.Join(r.DiagCodes, " ")
		}
		fmt.Fprintf(out, "| %s | %s | %.1f%% | %.1f%% | %.1f%% | %s | %s | %s |\n",
			r.Name, r.Pattern, 100*r.BaseEff, 100*r.SpecEff, 100*r.StaticEff, threshold, diags, fallback)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## Compile time — pass-pipeline cost per benchmark")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| benchmark | spec pipeline |")
	fmt.Fprintln(out, "|-----------|---------------|")
	for _, r := range rows {
		fmt.Fprintf(out, "| %s | `%s` |\n", r.Name, r.SpecPipeline)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## Figure 8 — efficiency improvement vs. speedup")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| benchmark | eff improvement | speedup |")
	fmt.Fprintln(out, "|-----------|----------------:|--------:|")
	for _, r := range rows {
		fmt.Fprintf(out, "| %s | %.2fx | %.2fx |\n", r.Name, r.EffImprovement(), r.Speedup())
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## Figure 9 — soft-barrier threshold sweeps")
	fmt.Fprintln(out)
	thresholds := []int{1, 4, 8, 12, 16, 20, 24, 28, 32}
	sweeps := map[string][]ThresholdPoint{}
	for _, name := range []string{"pathtracer", "xsbench"} {
		pts, err := Figure9(name, cfg, thresholds, parallelism)
		if err != nil {
			return fmt.Errorf("figure 9 (%s): %w", name, err)
		}
		sweeps[name] = pts
	}
	fmt.Fprintln(out, "| T | pathtracer eff | pathtracer speedup | xsbench eff | xsbench speedup |")
	fmt.Fprintln(out, "|---|---------------:|-------------------:|------------:|----------------:|")
	for i, tval := range thresholds {
		p, x := sweeps["pathtracer"][i], sweeps["xsbench"][i]
		fmt.Fprintf(out, "| %d | %.1f%% | %.2fx | %.1f%% | %.2fx |\n",
			tval, 100*p.Eff, p.Speedup, 100*x.Eff, x.Speedup)
	}
	fmt.Fprintln(out)

	auto, err := Figure10(cfg, parallelism)
	if err != nil {
		return fmt.Errorf("figure 10: %w", err)
	}
	fmt.Fprintln(out, "## Figure 10 — automatic speculative reconvergence")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| kernel | base eff | auto eff | speedup |")
	fmt.Fprintln(out, "|--------|---------:|---------:|--------:|")
	for _, r := range auto {
		fmt.Fprintf(out, "| %s | %.1f%% | %.1f%% | %.2fx |\n", r.Name, 100*r.BaseEff, 100*r.SpecEff, r.Speedup())
	}
	fmt.Fprintln(out)

	funnel, err := RunFunnel(funnelApps, 42, parallelism)
	if err != nil {
		return fmt.Errorf("funnel: %w", err)
	}
	fmt.Fprintln(out, "## Section 5.4 — application-population funnel")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| stage | paper | measured |")
	fmt.Fprintln(out, "|-------|------:|---------:|")
	fmt.Fprintf(out, "| studied | 520 | %d |\n", funnel.Studied)
	fmt.Fprintf(out, "| SIMT efficiency < 80%% | 75 | %d |\n", funnel.LowEff)
	fmt.Fprintf(out, "| non-trivial opportunity | 16 | %d |\n", funnel.Detected)
	fmt.Fprintf(out, "| significant improvement | 5 | %d |\n", funnel.Significant)
	fmt.Fprintf(out, "| regressions among detected | — | %d |\n", funnel.Regressed)
	fmt.Fprintf(out, "| verifier fallbacks among detected | — | %d |\n", funnel.Fallbacks)
	fmt.Fprintf(out, "| repaired before measurement | — | %d |\n", funnel.Repaired)
	fmt.Fprintln(out)

	profiles, err := CollectProfiles(cfg, parallelism)
	if err != nil {
		return fmt.Errorf("profiles: %w", err)
	}
	if err := WriteProfileSection(out, profiles, 5); err != nil {
		return err
	}

	occs, err := CollectOccupancy(cfg, 0, parallelism)
	if err != nil {
		return fmt.Errorf("occupancy: %w", err)
	}
	if err := WriteOccupancySection(out, occs); err != nil {
		return err
	}

	// The scheduler-sensitivity closer: the headline speedups must
	// survive adversarial inter-warp schedules, with every point's final
	// memory checked against the greedy baseline inside the driver.
	policies := []simt.SchedPolicy{
		simt.SchedGreedyConverge, simt.SchedOldestFirst,
		simt.SchedYoungestFirst, simt.SchedLooseFair, simt.SchedRandom,
	}
	grid, err := SchedSensitivity("pathtracer", cfg, policies, []int{8, 16, 32}, parallelism)
	if err != nil {
		return fmt.Errorf("scheduler sensitivity: %w", err)
	}
	WriteSchedSensitivity(out, "pathtracer", policies, grid)
	return nil
}
