package harness

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// Scheduler sensitivity: the speculative-reconvergence claims must not
// hinge on the reference greedy-converge warp scheduler. This driver
// sweeps warp-scheduling policies × soft-barrier thresholds for one
// workload, checks every point's final memory against the greedy
// baseline, arms the starvation monitor so a schedule-dependent hang
// surfaces as a typed liveness failure instead of a stuck sweep, and —
// when a telemetry registry is installed (UseTelemetry) — publishes
// per-policy occupancy and issue-efficiency gauges plus starvation
// counters.

// SchedSweepStarveLimit is the starvation budget armed on every
// policy-scheduled sweep run: generous enough that no fair schedule of
// a terminating kernel trips it, tight enough to fail long before the
// checker's issue budget.
const SchedSweepStarveLimit = 1 << 21

// SchedPoint is one (policy, threshold) cell of the scheduler
// sensitivity grid.
type SchedPoint struct {
	Policy    simt.SchedPolicy
	Threshold int
	Eff       float64
	Speedup   float64 // greedy-baseline cycles / this point's cycles
	Cycles    int64
	// AvgResident/IssueEff/NoEligibleFrac aggregate the occupancy
	// sampler over the run (all SMs).
	AvgResident    float64
	IssueEff       float64
	NoEligibleFrac float64
	// Starved is set when the point failed with a StarvationError
	// instead of completing; Err carries the message. A starving policy
	// is a reportable property of the schedule, not a sweep abort.
	Starved bool
	Err     string
}

// SchedSensitivity sweeps policies × thresholds for the named workload.
// The baseline (greedy scheduler, PDOM build) is compiled and run once;
// every point's final memory must match it — a mismatch is a
// schedule-dependence finding and fails the sweep. Liveness failures
// (starvation under an unfair policy) are recorded on the point.
// Results are keyed by policy name in the given policy order.
func SchedSensitivity(name string, cfg workloads.BuildConfig, policies []simt.SchedPolicy, thresholds []int, parallelism int) (map[string][]SchedPoint, error) {
	w, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	inst := w.Build(cfg)
	_, base, err := Run(inst, core.BaselineOptions())
	if err != nil {
		return nil, err
	}
	if err := ir.VerifyModule(inst.Module); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	points := make([]SchedPoint, len(policies)*len(thresholds))
	recs := make([]*obs.OccupancyRecorder, len(points))
	err = forEach("schedsweep", parallelism, len(points), func(i int) error {
		pol := policies[i/len(thresholds)]
		thr := thresholds[i%len(thresholds)]
		specOpts := core.SpecReconOptions()
		specOpts.ThresholdOverride = thr
		specOpts.AssumeVerified = true
		comp, err := core.Compile(inst.Module, specOpts)
		if err != nil {
			return fmt.Errorf("policy %s threshold %d: %w", pol, thr, err)
		}
		rec := obs.NewOccupancyRecorder()
		recs[i] = rec
		runCfg := launchConfig(inst)
		runCfg.Sched = pol
		runCfg.StarveLimit = SchedSweepStarveLimit
		runCfg.SampleStride = DefaultSampleStride
		runCfg.Samples = rec
		if runCfg.Grid == 0 && pol == simt.SchedGreedyConverge {
			// The sequential flat driver has no issue passes to sample;
			// the policy scheduler always runs resident passes.
			runCfg.InterleaveWarps = true
		}
		pt := SchedPoint{Policy: pol, Threshold: thr}
		res, err := simt.Run(comp.Module, runCfg)
		if err != nil {
			var se *simt.StarvationError
			if errors.As(err, &se) {
				pt.Starved = true
				pt.Err = err.Error()
				points[i] = pt
				return nil
			}
			return fmt.Errorf("policy %s threshold %d: %w", pol, thr, err)
		}
		if err := VerifySameResults(base.Memory, res.Memory); err != nil {
			return fmt.Errorf("policy %s threshold %d: schedule-dependent result: %w", pol, thr, err)
		}
		pt.Eff = res.Metrics.SIMTEfficiency()
		pt.Speedup = float64(base.Metrics.Cycles) / float64(res.Metrics.Cycles)
		pt.Cycles = res.Metrics.Cycles
		for _, o := range rec.PerSM() {
			pt.AvgResident += o.AvgResident()
		}
		agg := aggregateOccupancy(rec)
		pt.IssueEff = agg.IssueEfficiency()
		pt.NoEligibleFrac = agg.NoEligibleFrac()
		points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make(map[string][]SchedPoint, len(policies))
	for pi, pol := range policies {
		rows := points[pi*len(thresholds) : (pi+1)*len(thresholds) : (pi+1)*len(thresholds)]
		out[pol.String()] = rows
		publishSchedPolicy(name, pol, rows, recs[pi*len(thresholds):(pi+1)*len(thresholds)])
	}
	return out, nil
}

// aggregateOccupancy folds a recorder's per-SM streams into one stat.
func aggregateOccupancy(rec *obs.OccupancyRecorder) obs.OccupancyStats {
	var agg obs.OccupancyStats
	for _, o := range rec.PerSM() {
		agg.Merge(&o)
	}
	return agg
}

// publishSchedPolicy reports one policy's aggregate occupancy and
// starvation outcomes to the installed telemetry registry, labeled
// {workload, policy}.
func publishSchedPolicy(workload string, pol simt.SchedPolicy, rows []SchedPoint, recs []*obs.OccupancyRecorder) {
	reg := Telemetry()
	if reg == nil {
		return
	}
	var agg obs.OccupancyStats
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		a := aggregateOccupancy(rec)
		agg.Merge(&a)
	}
	starved := 0
	for _, r := range rows {
		if r.Starved {
			starved++
		}
	}
	l := pol.String()
	reg.Counter("harness_sched_points_total",
		"Scheduler-sensitivity sweep points measured, per workload and policy.",
		"workload", "policy").With(workload, l).Add(int64(len(rows)))
	reg.Counter("harness_sched_starvation_total",
		"Sweep points that failed with a StarvationError, per workload and policy.",
		"workload", "policy").With(workload, l).Add(int64(starved))
	if agg.Samples > 0 {
		reg.Gauge("simt_sched_avg_resident",
			"Mean resident warps per occupancy sample across the policy's sweep points.",
			"workload", "policy").With(workload, l).Set(agg.AvgResident())
		reg.Gauge("simt_sched_issue_efficiency",
			"Issued warps as a fraction of resident warp-samples across the policy's sweep points.",
			"workload", "policy").With(workload, l).Set(agg.IssueEfficiency())
		reg.Gauge("simt_sched_no_eligible_frac",
			"Fraction of samples with resident warps but nothing eligible, across the policy's sweep points.",
			"workload", "policy").With(workload, l).Set(agg.NoEligibleFrac())
	}
}

// WriteSchedSensitivity renders the sweep as one markdown table per
// policy, in the given policy order.
func WriteSchedSensitivity(out io.Writer, name string, policies []simt.SchedPolicy, grid map[string][]SchedPoint) {
	fmt.Fprintf(out, "## Scheduler sensitivity: %s\n\n", name)
	fmt.Fprintln(out, "Soft-barrier threshold sweep under each warp-scheduling policy; every")
	fmt.Fprintln(out, "point's final memory matches the greedy baseline (checked).")
	fmt.Fprintln(out)
	for _, pol := range policies {
		rows := grid[pol.String()]
		if rows == nil {
			continue
		}
		fmt.Fprintf(out, "### policy %s\n\n", pol)
		fmt.Fprintln(out, "| threshold | simt eff | speedup | avg resident | issue eff | outcome |")
		fmt.Fprintln(out, "|---:|---:|---:|---:|---:|:---|")
		for _, r := range rows {
			outcome := "ok"
			if r.Starved {
				outcome = "STARVED"
			}
			fmt.Fprintf(out, "| %d | %.1f%% | %.2fx | %.2f | %s | %s |\n",
				r.Threshold, 100*r.Eff, r.Speedup, r.AvgResident,
				strconv.FormatFloat(r.IssueEff, 'f', 3, 64), outcome)
		}
		fmt.Fprintln(out)
	}
}
