// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line
// of standard output:
//
//	bash perfbench/run.sh --workload fig7 --seed 24301 --seconds 20 --trace 0
//
// Workloads: fig7 (the paper's Figure 7/8 experiment: parse, compile,
// decode and flat launch of the eight annotated workloads), grid (the
// speculative RSBench build as a sharded 16-CTA grid under three
// launch kinds) and corpus (parse, analyze, auto-annotate and
// fail-safe compile of generated apps, with fault-planted repair
// builds). BENCHMARK.json at the repository root names the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart approximates the process start for the first set-up.
var processStart = time.Now()

// defaultSeed is the workloads' own default table seed; golden.json
// pins the exact outcomes at it.
const defaultSeed = 0x5eed

// setupReps is how many times a run sets the workload up; setup_s is
// the median.
const setupReps = 5

// minPasses is the least number of timed passes a run makes, however
// short --seconds is.
const minPasses = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig7, grid or corpus")
	seed := fs.Uint64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "seconds of timed passes")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
	}
	if cfg.trace {
		path := fmt.Sprintf(".bench_build/trace-%s-seed%d.json", cfg.workload, cfg.seed)
		if err := rep.tr.writeChromeTrace(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		rep.meta["spans"] = path
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	meta, _ := json.Marshal(rep.meta)
	fmt.Fprintf(stdout, "meta %s\n", meta)
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// report is everything one run produced.
type report struct {
	result
	lines    []string
	meta     map[string]any
	failures []string
	tr       *tracer
}

// measure sets the workload up setupReps times (each set-up ends with
// an untimed warm-up pass), then runs timed passes for cfg.seconds. A
// traced run spends the first half untraced, as the reference for the
// tracing overhead, and the second half traced. Every time is taken
// both as wall time and as calibrated time (see calibrate.go).
func measure(cfg config) (*report, error) {
	def, ok := workloadDefs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have fig7, grid, corpus)", cfg.workload)
	}
	b := newBench(cfg.seed)
	var setupS, setupCal []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		// Return the previous set-up's memory to the OS, so that every
		// set-up starts from the same heap and peak_rss_mb stays steady.
		debug.FreeOSMemory()
		b.cal = newCalibration(def.goroutines)
		b.cal.startPass()
		if i == 0 {
			// The first set-up counts from process start.
			b.cal.segStart = processStart
		}
		var err error
		if w, err = def.setup(b); err != nil {
			return nil, err
		}
		b.runPass(w)
		b.cal.cut(true)
		setupS = append(setupS, b.cal.raw.Seconds())
		setupCal = append(setupCal, b.cal.rel.Seconds())
	}
	b.cal = nil

	untimed := cfg.seconds
	if cfg.trace {
		untimed /= 2
	}
	rep := &report{}
	passS, relS := timedPasses(b, w, def.goroutines, untimed)
	facts := b.facts
	model := w.model(facts)

	var tracedS, tracedRel []float64
	if cfg.trace {
		b.tr = newTracer()
		tracedS, tracedRel = timedPasses(b, w, def.goroutines, cfg.seconds-untimed)
		rep.tr = b.tr
	}

	rep.Attempted, rep.Failed = b.attempted, b.failed
	rep.Correct = b.failed == 0
	rep.failures = b.failures
	if cfg.trace {
		rep.Metrics = layerMetrics(b.tr, b.facts, model, median(relS), median(tracedRel))
	} else {
		rep.Metrics = map[string]metric{
			"setup_s":     {median(setupCal), "s"},
			"kernel_ms":   {1e3 * median(relS) / float64(w.kernels()), "ms"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		}
	}

	passMs := sortedMs(passS)
	issues := facts.issues()
	rep.lines = append(rep.lines,
		fmt.Sprintf("workload %s seed %d: %d kernels/pass, %d timed passes, pass p50 %.3f ms, p90 %.3f ms",
			cfg.workload, cfg.seed, w.kernels(), len(passS), percentileF(passMs, 0.5), percentileF(passMs, 0.9)),
		fmt.Sprintf("setup_s %.4f s calibrated, %.4f s wall (median of %d; the first, from process start, %.4f s wall)",
			median(setupCal), median(setupS), len(setupS), setupS[0]),
		fmt.Sprintf("kernel_ms %.4f ms calibrated, %.4f ms wall", 1e3*median(relS)/float64(w.kernels()), 1e3*median(passS)/float64(w.kernels())),
		fmt.Sprintf("kernels_per_s %.3f kernels/s wall", float64(w.kernels())/median(passS)),
	)
	if issues > 0 {
		rep.lines = append(rep.lines, fmt.Sprintf("issues_per_s %.0f issues/s calibrated, %.0f wall (%d issues/pass)",
			float64(issues)/median(relS), float64(issues)/median(passS), issues))
	}
	failedPct := 0.0
	if b.attempted > 0 {
		failedPct = 100 * float64(b.failed) / float64(b.attempted)
	}
	rep.lines = append(rep.lines,
		fmt.Sprintf("failed_pct %.3f %% (%d of %d ops)", failedPct, b.failed, b.attempted),
		fmt.Sprintf("peak_rss_mb %.1f MB", peakRSSMB()))
	if model.speedupX > 0 {
		rep.lines = append(rep.lines, fmt.Sprintf("speedup_x %.4f x (modelled)", model.speedupX),
			fmt.Sprintf("simt_eff_pct %.4f %% (modelled)", model.simtEffPct))
	}
	if model.fallbackOf > 0 {
		rep.lines = append(rep.lines, fmt.Sprintf("fallback_pct %.4f %% (%d planted builds with a target)", model.fallbackPct, model.fallbackOf))
	}

	launches := int64(0)
	for _, c := range facts.launches {
		launches += c.launches
	}
	rep.meta = map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"seconds":    cfg.seconds,
		"kernels":    w.kernels(),
		"launches":   launches,
		"issues":     issues,
		"passes":     len(passS),
		"traced":     len(tracedS),
		"setup_reps": len(setupS),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"git_rev":    gitRev(),
		"failed_pct": failedPct,
	}
	return rep, nil
}

// timedPasses runs passes for at least seconds and minPasses passes. It
// returns each pass's wall time in seconds, calibration loops excluded,
// and its calibrated time (see calibrate.go).
func timedPasses(b *bench, w workload, goroutines int, seconds float64) (passS, relS []float64) {
	b.cal = newCalibration(goroutines)
	defer func() { b.cal = nil }()
	start := time.Now()
	for len(passS) < minPasses || time.Since(start).Seconds() < seconds {
		b.cal.startPass()
		b.runPass(w)
		b.cal.cut(true)
		passS = append(passS, b.cal.raw.Seconds())
		relS = append(relS, b.cal.rel.Seconds())
	}
	return passS, relS
}

func median(v []float64) float64 {
	return percentileF(sortedCopy(v), 0.5)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func sortedMs(v []float64) []float64 {
	s := sortedCopy(v)
	for i := range s {
		s[i] *= 1e3
	}
	return s
}

// percentileF interpolates the q-quantile of sorted values.
func percentileF(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// gitRev is the checkout's revision when it is a git work tree.
func gitRev() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
