package harness

import (
	"fmt"

	"specrecon/internal/core"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// Profile-guided automatic detection. Section 4.5: "Static analysis is
// limited by its inability to predict dynamic loop counts and caching
// behavior, rendering it too conservative. Profile information may help
// improve the accuracy of our profitability tests." This driver runs the
// baseline build once, harvests per-block visit counts from the
// simulator, and feeds them to the detector in place of its static
// trip-count guess.

// CollectProfile runs the baseline build of inst and returns per-block
// active-lane visit counts keyed by block name, for every function.
func CollectProfile(inst *workloads.Instance) (map[string]int64, error) {
	comp, err := core.Compile(inst.Module, core.BaselineOptions())
	if err != nil {
		return nil, err
	}
	res, err := simt.Run(comp.Module, launchConfig(inst))
	if err != nil {
		return nil, err
	}
	profile := make(map[string]int64)
	// The compiled module's block structure matches the input module's
	// block names (passes only insert instructions into existing blocks
	// for the baseline build).
	for fi, f := range comp.Module.Funcs {
		for bi, b := range f.Blocks {
			if v := res.Metrics.BlockVisits(fi, bi); v > 0 {
				profile[b.Name] += v
			}
		}
	}
	if len(profile) == 0 {
		return nil, fmt.Errorf("profile collection produced no samples")
	}
	return profile, nil
}

// ProfileGuidedAutoComparison is AutoComparison with the detector driven
// by a measured execution profile instead of static estimates.
func ProfileGuidedAutoComparison(w *workloads.Workload, cfg workloads.BuildConfig) (Comparison, []core.Candidate, error) {
	inst := w.Build(cfg)
	profile, err := CollectProfile(inst)
	if err != nil {
		return Comparison{}, nil, err
	}

	stripped := inst.Module.Clone()
	for _, f := range stripped.Funcs {
		f.Predictions = nil
	}
	opts := core.DefaultAutoDetectOptions()
	opts.Profile = profile
	// A measured profile yields true dynamic cost ratios, which are
	// smaller than the static mode's trip-count extrapolations; the
	// profitability bar is "common work dominates overhead 4:1".
	opts.MinScore = 4
	applied := core.AutoAnnotate(stripped, opts)

	_, base, err := Run(inst, core.BaselineOptions())
	if err != nil {
		return Comparison{}, nil, err
	}
	autoInst := &workloads.Instance{Module: stripped, Kernel: inst.Kernel, Threads: inst.Threads, Memory: inst.Memory, Seed: inst.Seed}
	comp, spec, err := Run(autoInst, core.SpecReconOptions())
	if err != nil {
		return Comparison{}, nil, err
	}
	if err := VerifySameResults(base.Memory, spec.Memory); err != nil {
		return Comparison{}, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return Comparison{
		Name:       w.Name,
		Pattern:    w.Pattern,
		BaseEff:    base.Metrics.SIMTEfficiency(),
		SpecEff:    spec.Metrics.SIMTEfficiency(),
		BaseCycles: base.Metrics.Cycles,
		SpecCycles: spec.Metrics.Cycles,
		BaseIssues: base.Metrics.Issues,
		SpecIssues: spec.Metrics.Issues,
		Conflicts:  len(comp.Conflicts),
	}, applied, nil
}
