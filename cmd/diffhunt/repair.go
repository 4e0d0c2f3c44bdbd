package main

import (
	"errors"
	"fmt"

	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/diffcheck"
	"specrecon/internal/harness"
	"specrecon/internal/telemetry"
)

// repairStats aggregates the repair campaign across both legs. The
// pre-repair fallback count needs no second sweep: the repair pass only
// applies edits when the analysis has errors — exactly the builds the
// plain verifier would have rejected into the PDOM fail-safe — so every
// repaired build and every residual fallback was a pre-repair fallback.
type repairStats struct {
	// planted counts fault plants that actually perturbed a build.
	planted int
	// repaired: the repair pipeline fixed the build and re-verification
	// accepted it.
	repaired int
	// fallbacks: the verifier still rejected after repair gave up — the
	// build degrades to PDOM, as every rejected build did before repair.
	fallbacks int
	// quiet: the fault applied but tripped no static check on this
	// kernel (possible on corpus kernels with trivial barrier layouts).
	quiet int
	// skips: the fault had no target in the build, or the kernel itself
	// is broken — nothing was planted.
	skips int
	// mismatches: matrix outcomes disagreeing with Fault.WantRepaired.
	mismatches int
	// findings: a repaired build failed its differential proof
	// obligation against the un-repaired PDOM baseline.
	findings int
}

func (s repairStats) preFallbacks() int { return s.repaired + s.fallbacks + s.findings }

func (s repairStats) preRate() float64 {
	if s.planted == 0 {
		return 0
	}
	return float64(s.preFallbacks()) / float64(s.planted)
}

func (s repairStats) postRate() float64 {
	if s.planted == 0 {
		return 0
	}
	return float64(s.fallbacks) / float64(s.planted)
}

// runRepairCampaign measures the automated-repair layer over the fault
// matrix and the corpus: every statically-visible fault is planted,
// pushed through repair-then-reverify, classified repaired/fallback,
// and every repaired build is differentially checked against the
// un-repaired PDOM baseline (failures are minimized to repros). It
// returns the number of failures: policy mismatches against the
// matrix's WantRepaired column, proof-obligation findings, and a
// post-repair fallback rate that has not strictly improved on the
// pre-repair rate.
func (h hunt) runRepairCampaign(n int, seed uint64, ledgerPath string) int {
	var st repairStats
	h.runRepairMatrix(&st)
	h.runRepairCorpus(&st, n, seed)

	fmt.Fprintf(h.stdout, "diffhunt repair: %d planted, %d repaired, %d fallback, %d quiet, %d skipped, %d mismatches, %d findings\n",
		st.planted, st.repaired, st.fallbacks, st.quiet, st.skips, st.mismatches, st.findings)
	fmt.Fprintf(h.stdout, "diffhunt repair: fail-safe fallback rate %.1f%% pre-repair -> %.1f%% post-repair\n",
		100*st.preRate(), 100*st.postRate())

	failures := st.mismatches + st.findings
	if st.repaired == 0 {
		fmt.Fprintln(h.stdout, "diffhunt repair: FAIL: no fault was repaired")
		failures++
	} else if st.postRate() >= st.preRate() {
		fmt.Fprintln(h.stdout, "diffhunt repair: FAIL: fallback rate did not improve")
		failures++
	}

	if ledgerPath != "" {
		rec := telemetry.RunRecord{
			Time:   telemetry.NowRFC3339(),
			Tool:   "diffhunt-repair",
			GitRev: telemetry.GitRev(),
			Config: telemetry.Fingerprint(map[string]any{"n": n, "seed": seed, "maxIssues": h.maxIssues}),
			Metrics: map[string]float64{
				"planted":                  float64(st.planted),
				"repaired":                 float64(st.repaired),
				"fallbacks":                float64(st.fallbacks),
				"quiet":                    float64(st.quiet),
				"skips":                    float64(st.skips),
				"findings":                 float64(st.findings),
				"pre_repair_fallback_rate": st.preRate(),
				"repair_fallback_rate":     st.postRate(),
			},
		}
		if err := telemetry.AppendRecord(ledgerPath, rec); err != nil {
			fmt.Fprintf(h.stderr, "diffhunt: %v\n", err)
			failures++
		}
	}
	return failures
}

// runRepairMatrix plants every statically-visible matrix fault on the
// canonical kernel, drives it through CompileSafe (repair-then-reverify
// before the PDOM fail-safe) and holds the outcome against the matrix's
// WantRepaired column. Repaired builds carry a proof obligation: the
// differential check against the un-repaired baseline must pass.
func (h hunt) runRepairMatrix(st *repairStats) {
	fmt.Fprintln(h.stdout, "repair campaign: fault matrix")
	k := diffcheck.MatrixKernel()
	for _, f := range diffcheck.FaultMatrix() {
		if !f.WantStatic {
			// Repair engages on verifier rejection; faults the verifier
			// cannot see never reach it.
			continue
		}
		st.planted++
		opts := core.SpecReconOptions()
		opts.Faults = f.Plan
		sc, err := core.CompileSafe(k.Module, opts)
		if err != nil {
			fmt.Fprintf(h.stdout, "  %-16s FAIL: %v\n", f.Name, err)
			st.findings++
			continue
		}
		outcome := "quiet"
		switch {
		case sc.Repaired != nil:
			outcome = "repaired"
			st.repaired++
		case sc.FellBack:
			outcome = "fallback"
			st.fallbacks++
		default:
			st.quiet++
		}
		status := "ok"
		if (sc.Repaired != nil) != f.WantRepaired {
			status = "POLICY MISMATCH"
			st.mismatches++
		}
		proof := "-"
		if sc.Repaired != nil {
			cell := harness.Cell{Kernel: k, Opts: diffcheck.Options{Faults: f.Plan, Verify: true, Repair: true, MaxIssues: h.maxIssues}}
			o := harness.Check("diffhunt-repair", 1, []harness.Cell{cell})[0]
			proof = "verified"
			if !o.Res.OK {
				proof = "REFUTED"
				status = "PROOF FAILED"
				st.findings++
				h.writeRepro(cell, o)
			}
		}
		fmt.Fprintf(h.stdout, "  %-16s %-9s proof=%-9s %s\n", f.Name, outcome, proof, status)
		if h.verbose && sc.Repaired != nil {
			fmt.Fprintf(h.stdout, "    %s\n", sc.Repaired.Report.Summary())
		}
	}
}

// runRepairCorpus plants every compile-layer matrix fault plan over the
// auto-annotated corpus: each applicable (kernel, fault) pair runs the
// full differential check through the repair pipeline, so a repaired
// corpus kernel is simultaneously counted and proof-checked. Faults
// with no target in a given build (corpus kernels vary in barrier
// layout) are skips, not plants. A check that panics is a finding.
func (h hunt) runRepairCorpus(st *repairStats, n int, seed uint64) {
	fmt.Fprintf(h.stdout, "repair campaign: corpus (%d applications)\n", n)

	var plans []core.FaultPlan
	for _, f := range diffcheck.FaultMatrix() {
		if f.WantStatic {
			plans = append(plans, f.Plan)
		}
	}
	var cells []harness.Cell
	for _, app := range corpus.Generate(n, seed) {
		k := harness.CorpusKernel(app)
		for _, p := range plans {
			cells = append(cells, harness.Cell{Kernel: k, Opts: diffcheck.Options{
				Faults: p, AutoAnnotate: true, Verify: true, Repair: true, MaxIssues: h.maxIssues,
			}})
		}
	}

	for i, o := range harness.Check("diffhunt-repair", h.jobs, cells) {
		c, res := cells[i], o.Res
		switch {
		case res.OK && res.Repaired:
			st.planted++
			st.repaired++
			if h.verbose {
				fmt.Fprintf(h.stdout, "repair %s [%s]\n", c.Kernel.Name, c.Opts.Faults)
			}
		case res.OK:
			st.planted++
			st.quiet++
			if h.verbose {
				fmt.Fprintf(h.stdout, "quiet  %s [%s]\n", c.Kernel.Name, c.Opts.Faults)
			}
		case res.Stage == diffcheck.StageVerify && errors.Is(res.Err, core.ErrNoFaultTarget):
			// The fault had no target in this build: no plant.
			st.skips++
		case res.Stage == diffcheck.StageVerify:
			st.planted++
			st.fallbacks++
			if h.verbose {
				fmt.Fprintf(h.stdout, "fall   %s [%s]: %v\n", c.Kernel.Name, c.Opts.Faults, res.Err)
			}
		case res.Stage.BaselineFailure():
			st.skips++
		default:
			st.planted++
			st.findings++
			fmt.Fprintf(h.stdout, "FAIL %s [%s]: %v\n", c.Kernel.Name, c.Opts.Faults, res)
			h.writeRepro(c, o)
		}
	}
}
