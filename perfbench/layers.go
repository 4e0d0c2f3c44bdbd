package main

import (
	"sort"
	"time"
)

// timedLayers report calls, busy and self ms, p50/tail ms per call, KB
// allocated per call and their share of op wall time, all per pass.
var timedLayers = []string{parseLayer, compileLayer, autodetectLayer, analyzeLayer, repairLayer, decodeLayer, reportLayer}

// passNames are the compiler passes of the clean builds whose
// Compilation.PassStats the traced run sums.
var passNames = []string{"pdom", "predict", "deconflict", "barrier-safety", "alloc"}

// layerMetrics builds the per-layer metrics of a traced run. Every
// workload reports the same names; a layer the workload does not reach
// reports 0. untracedPass and tracedPass are the median calibrated pass
// times of the two halves of the run.
func layerMetrics(tr *tracer, facts *passFacts, model modelFacts, untracedPass, tracedPass float64) map[string]metric {
	stats, opWall := tr.aggregate()
	passes := float64(tr.passesCompleted)
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	share := func(d time.Duration) float64 {
		if opWall == 0 {
			return 0
		}
		return 100 * float64(d) / float64(opWall)
	}
	get := func(name string) *layerStats {
		if s := stats[name]; s != nil {
			sort.Float64s(s.durMs)
			return s
		}
		return &layerStats{}
	}
	perCall := func(s *layerStats, v float64) float64 {
		if s.calls == 0 {
			return 0
		}
		return v / float64(s.calls)
	}
	common := func(name string, s *layerStats) {
		put(name+".calls", float64(s.calls)/passes, "count")
		put(name+".busy_ms", ms(s.busy)/passes, "ms")
		put(name+".self_ms", ms(s.self)/passes, "ms")
		put(name+".kb_per_call", perCall(s, float64(s.alloc)/1024), "KB")
		put(name+".share_pct", share(s.busy), "%")
	}
	for _, name := range timedLayers {
		s := get(name)
		common(name, s)
		put(name+".ms_p50", percentileF(s.durMs, 0.5), "ms")
		put(name+".ms_tail", percentileF(s.durMs, tailQuantile(len(s.durMs))), "ms")
	}
	common(launchLayer, get(launchLayer))
	op := get(opSpan)
	put("bench.op.self_ms", ms(op.self)/passes, "ms")
	put("bench.op.share_pct", share(op.self), "%")

	parse := get(parseLayer)
	instrsPerS := 0.0
	if parse.busy > 0 {
		instrsPerS = facts.counts["ir.instrs"] * passes / parse.busy.Seconds()
	}
	put("ir.parse.instrs_per_s", instrsPerS, "1/s")
	put("core.autodetect.annotated", facts.counts["core.autodetect.annotated"], "count")
	put("analyze.diagnostics", facts.counts["analyze.diagnostics"], "count")
	for _, c := range []string{"repair.repaired", "repair.fallback", "repair.no_target", "repair.quiet"} {
		put(c, facts.counts[c], "count")
	}
	put("repair.fallback_pct", model.fallbackPct, "%")
	repeat := 0.0
	if tr.compiles > 0 {
		repeat = float64(tr.compileRepeats) / float64(tr.compiles)
	}
	put("core.compile_repeat_share", repeat, "ratio")
	for _, p := range passNames {
		put("core.pass."+p+".ms", tr.passMs[p]/passes, "ms")
		put("core.pass."+p+".instr_delta", tr.passDelta[p]/passes, "count")
	}

	nsPerIssue := map[string]float64{}
	for _, kind := range launchKinds {
		name := launchLayer + "." + kind
		s := get(name)
		c := facts.launches[kind]
		if c == nil {
			c = &launchCounts{}
		}
		put(name+".ms_p50", percentileF(s.durMs, 0.5), "ms")
		put(name+".ms_tail", percentileF(s.durMs, tailQuantile(len(s.durMs))), "ms")
		if c.issues > 0 {
			nsPerIssue[kind] = float64(s.busy) / passes / float64(c.issues)
		}
		put(name+".ns_per_issue", nsPerIssue[kind], "ns")
		put(name+".issues", float64(c.issues), "count")
		put(name+".cycles", float64(c.cycles), "count")
		put(name+".active_lane_pct", effPct(float64(c.lanes), float64(c.issues)), "%")
		put(name+".mem_tx", float64(c.memTx), "count")
		put(name+".barrier_waits", float64(c.barrierWaits), "count")
	}
	put("simt.sm_issue_imbalance", facts.counts["simt.sm_issue_imbalance"], "x")
	observe := 0.0
	if g, o := nsPerIssue["grid_greedy"], nsPerIssue["grid_observed"]; g > 0 {
		observe = 100 * (o/g - 1)
	}
	put("obs.observe_overhead_pct", observe, "%")
	put("model.speedup_x", model.speedupX, "x")
	put("model.simt_eff_pct", model.simtEffPct, "%")
	overhead := 0.0
	if untracedPass > 0 {
		overhead = 100 * (tracedPass/untracedPass - 1)
	}
	put("trace.overhead_pct", overhead, "%")
	return out
}
