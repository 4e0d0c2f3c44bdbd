// Command schedhunt runs schedule-exploration campaigns: every kernel
// of a seeded corpus is differentially checked with the speculative
// build running under non-default warp-scheduling policies (the
// baseline stays the greedy-converge reference), with the starvation
// monitor and a wall-clock watchdog armed. Any mismatch, deadlock,
// starvation or budget blow-up is a finding: a schedule-dependent
// kernel, or — when the static analyzer considers the kernel clean — a
// bug in one of the engines. Findings are shrunk to minimal standalone
// .sasm repros that record the exposing schedule for exact replay.
//
// Examples:
//
//	schedhunt -n 500 -seed 42                      # default policy × seed grid
//	schedhunt -n 500 -policies obe,random -seeds 1,2,3,4
//	schedhunt -matrix                              # planted scheduler-fault matrix
//	schedhunt -n 60 -seeds 7 -stats stats.json
//
// Exit status: 0 when every check passed (and, with -matrix, every
// planted fault was caught at its pinned layer); 1 otherwise. Kernels
// whose baseline fails are counted as skips — they indict the input,
// not the schedule. Usage errors, including the greedy reference as a
// policy to explore, exit 2. Per-check lines are printed after the
// sweep in cell order, so output does not depend on -j.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"specrecon/internal/analyze"
	"specrecon/internal/corpus"
	"specrecon/internal/diffcheck"
	"specrecon/internal/harness"
	"specrecon/internal/simt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, runs the campaign
// and returns the exit status (2 for a usage or output error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedhunt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 500, "number of corpus applications to generate")
		seed     = fs.Uint64("seed", 42, "corpus generation seed")
		policies = fs.String("policies", "oldest,youngest,obe,random", "comma-separated scheduling policies to explore (see -h of specrecon -sched)")
		seeds    = fs.String("seeds", "1,2,3,4", "comma-separated schedule seeds; each perturbs the launch seed and seeds the random policy")
		jobs     = fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
		matrix   = fs.Bool("matrix", false, "run the planted scheduler-sensitive fault matrix and require every fault caught at its pinned layer")

		maxIssues   = fs.Int64("max-issues", 1<<22, "per-run issue budget")
		starveLimit = fs.Int64("starve-limit", 1<<21, "starvation monitor budget in cycles armed on every policy-scheduled run (0 = off)")
		wallBudget  = fs.Duration("wall-budget", time.Minute, "wall-clock watchdog per simulator run (0 = off)")

		repros    = fs.String("repros", "testdata/repros", "directory for minimized .sasm repros of findings")
		statsPath = fs.String("stats", "", "write campaign statistics as JSON to this file (\"-\" for stdout)")
		verbose   = fs.Bool("v", false, "print one line per check")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "schedhunt:", err)
		return 2
	}

	pols, err := parsePolicies(*policies)
	if err != nil {
		return fail(err)
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		return fail(err)
	}

	failures := 0
	if *matrix {
		failures += runMatrix(stdout, *verbose)
	}
	st := runCampaign(campaignConfig{
		n: *n, seed: *seed, jobs: *jobs,
		policies: pols, seeds: seedList,
		maxIssues: *maxIssues, starveLimit: *starveLimit, wallBudget: *wallBudget,
		reproDir: *repros, verbose: *verbose,
		stdout: stdout, stderr: stderr,
	})
	failures += st.Findings + st.Panics

	fmt.Fprintf(stdout, "schedhunt: %d checks (%d kernels x %d policies x %d seeds), %d ok, %d skipped, %d findings, %d panics\n",
		st.Checks, st.Kernels, len(pols), len(seedList), st.OK, st.Skips, st.Findings, st.Panics)

	if *statsPath != "" {
		if err := writeStats(*statsPath, stdout, st); err != nil {
			return fail(err)
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

func parsePolicies(spec string) ([]simt.SchedPolicy, error) {
	var out []simt.SchedPolicy
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		p, err := simt.ParseSchedPolicy(tok)
		if err != nil {
			return nil, err
		}
		if p == simt.SchedGreedyConverge {
			return nil, fmt.Errorf("policy %q is the reference schedule; explore non-greedy policies", tok)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no policies in %q", spec)
	}
	return out, nil
}

func parseSeeds(spec string) ([]uint64, error) {
	var out []uint64
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseUint(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", tok, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds in %q", spec)
	}
	return out, nil
}

// runMatrix evaluates the planted scheduler-sensitive faults and
// returns how many missed their pinned detection layer.
func runMatrix(w io.Writer, verbose bool) int {
	bad := 0
	fmt.Fprintln(w, "scheduler fault matrix:")
	for _, o := range diffcheck.RunSchedMatrix() {
		status := "ok"
		if !o.ExpectationMet() {
			status = "SURFACE MOVED"
			bad++
		}
		greedy := "clean"
		if !o.GreedyClean {
			greedy = "DIRTY"
		}
		static := "clean"
		if !o.AnalyzerClean {
			static = "flagged"
		}
		fmt.Fprintf(w, "  %-22s sched=%-8s greedy=%-5s analyzer=%-7s caught=%-10s want=%-10s %s\n",
			o.Fault.Name, o.Fault.Sched, greedy, static, o.Got, o.Fault.WantLayer, status)
		if verbose && o.Result.Err != nil {
			fmt.Fprintf(w, "    %v\n", o.Result.Err)
		}
	}
	return bad
}

type campaignConfig struct {
	n              int
	seed           uint64
	jobs           int
	policies       []simt.SchedPolicy
	seeds          []uint64
	maxIssues      int64
	starveLimit    int64
	wallBudget     time.Duration
	reproDir       string
	verbose        bool
	stdout, stderr io.Writer
}

// Stats is the machine-readable campaign summary (-stats).
type Stats struct {
	Kernels  int `json:"kernels"`
	Checks   int `json:"checks"`
	OK       int `json:"ok"`
	Skips    int `json:"skips"`
	Findings int `json:"findings"`
	Panics   int `json:"panics"`
	// PerPolicy / PerLayer break findings down by exposing policy and
	// detection layer.
	PerPolicy map[string]int `json:"per_policy"`
	PerLayer  map[string]int `json:"per_layer"`
	// Repros lists the repro files written for findings (minimized)
	// and panics (as checked).
	Repros []string `json:"repros,omitempty"`
}

// runCampaign checks every (kernel, policy, seed) cell on the shared
// campaign loop and prints the per-cell lines in cell order once the
// sweep is done. A pathological kernel×schedule that panics surfaces
// as a contained panic with an unminimized repro, and the rest of the
// sweep still runs.
func runCampaign(cc campaignConfig) Stats {
	apps := corpus.Generate(cc.n, cc.seed)

	// The analyzer verdict per kernel, computed once: a statically
	// clean kernel failing under a legal schedule indicts an engine or
	// the kernel's reliance on a progress guarantee — either way a
	// finding worth a different label than a kernel the analyzer
	// already flags.
	clean := make([]bool, len(apps))
	harness.RunTasks("schedhunt-analyze", cc.jobs, len(apps), func(i int) error {
		rep := analyze.Analyze(apps[i].Module, analyze.Options{})
		clean[i] = len(rep.Errors()) == 0
		return nil
	})

	perApp := len(cc.policies) * len(cc.seeds)
	cells := make([]harness.Cell, 0, len(apps)*perApp)
	for _, app := range apps {
		for _, pol := range cc.policies {
			for _, ss := range cc.seeds {
				// Perturbing the launch seed makes every schedule seed a
				// genuinely different dynamic instance for every policy;
				// the baseline re-runs under the same perturbed seed, so
				// the greedy reference stays exact. The schedule and the
				// liveness monitors apply to the speculative run only.
				k := harness.CorpusKernel(app)
				k.Name = fmt.Sprintf("%s-%s-s%d", app.Name, pol, ss)
				k.Seed ^= ss * 0x9e3779b97f4a7c15
				cells = append(cells, harness.Cell{Kernel: k, Opts: diffcheck.Options{
					MaxIssues:    cc.maxIssues,
					AutoAnnotate: true,
					Sched:        pol,
					SchedSeed:    ss,
					StarveLimit:  cc.starveLimit,
					WallBudget:   cc.wallBudget,
				}})
			}
		}
	}

	st := Stats{Kernels: len(apps), Checks: len(cells),
		PerPolicy: map[string]int{}, PerLayer: map[string]int{}}
	for i, o := range harness.Check("schedhunt", cc.jobs, cells) {
		c := cells[i]
		pol, ss := c.Opts.Sched, c.Opts.SchedSeed
		if o.Panic != nil {
			st.Panics++
			fmt.Fprintf(cc.stdout, "PANIC %s under %s (seed %d): %v\n", apps[i/perApp].Name, pol, ss, o.Panic)
			st.writeRepro(cc, c, o)
			continue
		}
		switch {
		case o.Res.OK:
			st.OK++
			if cc.verbose {
				fmt.Fprintf(cc.stdout, "ok   %s\n", c.Kernel.Name)
			}
		case o.Res.Stage.BaselineFailure():
			st.Skips++
			if cc.verbose {
				fmt.Fprintf(cc.stdout, "skip %s: %v\n", c.Kernel.Name, o.Res)
			}
		default:
			layer := diffcheck.ClassifySchedFailure(o.Res)
			st.Findings++
			st.PerPolicy[pol.String()]++
			st.PerLayer[string(layer)]++
			verdict := "analyzer flags this kernel: schedule dependence expected"
			if clean[i/perApp] {
				verdict = "analyzer-clean kernel: indicts an engine or a progress-model reliance"
			}
			fmt.Fprintf(cc.stdout, "FAIL %s at %s [%s]: %v\n     %s\n", c.Kernel.Name, o.Res.Stage, layer, o.Res.Err, verdict)
			st.writeRepro(cc, c, o)
		}
	}
	sort.Strings(st.Repros)
	return st
}

// writeRepro writes the repro of a failed cell, records and prints its
// path.
func (st *Stats) writeRepro(cc campaignConfig, c harness.Cell, o harness.Outcome) {
	path, err := harness.WriteRepro(cc.reproDir, c, o)
	if err != nil {
		fmt.Fprintf(cc.stderr, "schedhunt: writing repro for %s: %v\n", c.Kernel.Name, err)
		return
	}
	st.Repros = append(st.Repros, path)
	fmt.Fprintf(cc.stdout, "     repro: %s\n", path)
}

func writeStats(path string, stdout io.Writer, st Stats) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
