// Command diffhunt runs differential-checking campaigns: it generates a
// seeded corpus of synthetic applications, pushes every kernel through
// the checker (baseline vs speculative build, strict budgeted runs,
// memory comparison), and reports findings. Failing kernels are shrunk
// to minimal standalone .sasm repros.
//
// Examples:
//
//	diffhunt -n 500 -seed 42            # seeded campaign, clean exit 0
//	diffhunt -n 500 -seed 42 -matrix    # campaign + fault-injection matrix
//	diffhunt -n 100 -mutate             # also check structural mutants
//	diffhunt -n 50 -v -j 4              # verbose, four workers
//	diffhunt -n 120 -repair             # automated-repair mutation campaign
//
// -repair replaces the standard campaign with the repair measurement:
// every statically-visible matrix fault is planted over the canonical
// kernel and the corpus, pushed through the repair-then-reverify
// pipeline, and classified repaired vs fallback; each repaired build is
// differentially checked against the un-repaired PDOM baseline. The
// campaign fails unless the post-repair fallback rate strictly improves
// on the pre-repair rate.
//
// Exit status: 0 when every check passed and (with -matrix) every
// injected fault was detected as expected; 1 otherwise. Kernels whose
// baseline build or run fails — possible for structural mutants — are
// counted as skips, not findings: they indict the input, not the
// transform. A check that panics is contained and counted as a
// finding. Usage errors exit 2. Per-kernel lines are printed after the
// sweep in corpus order, so output does not depend on -j.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"specrecon/internal/corpus"
	"specrecon/internal/diffcheck"
	"specrecon/internal/harness"
	"specrecon/internal/simt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, runs the campaign
// and returns the exit status (2 for a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diffhunt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n         = fs.Int("n", 500, "number of corpus applications to generate")
		seed      = fs.Uint64("seed", 42, "corpus generation seed")
		jobs      = fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
		matrix    = fs.Bool("matrix", false, "also run the fault-injection matrix and require every fault detected")
		repair    = fs.Bool("repair", false, "run the automated-repair campaign instead of the standard one (matrix + corpus fault plants through repair-then-reverify)")
		mutate    = fs.Int("mutate", 0, "additionally check up to this many structural mutants per kernel")
		maxIssues = fs.Int64("max-issues", 0, "per-run issue budget (0 = checker default)")
		repros    = fs.String("repros", "testdata/repros", "directory for minimized .sasm repros of findings")
		verbose   = fs.Bool("v", false, "print one line per kernel")
		policy    = fs.String("policy", "maxgroup", "intra-warp group pick for both runs: maxgroup | minpc | roundrobin")
		sched     = fs.String("sched", "greedy", "warp scheduler for the speculative run: greedy | oldest | youngest | obe | random (cmd/schedhunt sweeps these)")
		schedSeed = fs.Uint64("sched-seed", 0, "seed for -sched random")
		starveLim = fs.Int64("starve-limit", 0, "arm the starvation monitor on the speculative run with this cycle budget (0 = off)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	pol, err := simt.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(stderr, "diffhunt:", err)
		return 2
	}
	sp, err := simt.ParseSchedPolicy(*sched)
	if err != nil {
		fmt.Fprintln(stderr, "diffhunt:", err)
		return 2
	}
	schedOpts := diffcheck.ReproOpts{Policy: pol, Sched: sp, SchedSeed: *schedSeed, StarveLimit: *starveLim}

	h := hunt{stdout: stdout, stderr: stderr, jobs: *jobs, maxIssues: *maxIssues, reproDir: *repros, verbose: *verbose}
	failures := 0
	if *matrix {
		failures += h.runMatrix()
	}
	if *repair {
		failures += h.runRepairCampaign(*n, *seed)
	} else {
		failures += h.runCampaign(*n, *seed, *mutate, schedOpts)
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// hunt carries the settings every campaign leg shares.
type hunt struct {
	stdout, stderr io.Writer
	jobs           int
	maxIssues      int64
	reproDir       string
	verbose        bool
}

// runMatrix evaluates the injection matrix and returns the number of
// faults that escaped or were caught by unexpected layers.
func (h hunt) runMatrix() int {
	bad := 0
	fmt.Fprintln(h.stdout, "fault-injection matrix:")
	for _, o := range diffcheck.RunMatrix() {
		static, dynamic := "-", "-"
		if o.StaticErr != nil {
			static = "verifier"
		}
		if !o.Dynamic.OK {
			dynamic = string(o.Dynamic.Stage)
		}
		status := "ok"
		switch {
		case !o.Detected():
			status = "ESCAPED"
			bad++
		case !o.ExpectationMet():
			status = "SURFACE MOVED"
			bad++
		}
		fmt.Fprintf(h.stdout, "  %-16s static=%-9s dynamic=%-9s %s\n", o.Fault.Name, static, dynamic, status)
		if h.verbose && o.StaticErr != nil {
			fmt.Fprintf(h.stdout, "    %v\n", o.StaticErr)
		}
		if h.verbose && !o.Dynamic.OK {
			fmt.Fprintf(h.stdout, "    %v\n", o.Dynamic.Err)
		}
	}
	return bad
}

// runCampaign checks every corpus kernel (plus mutants when requested)
// and returns the number of findings. A check that panics counts as a
// finding.
func (h hunt) runCampaign(n int, seed uint64, mutate int, schedOpts diffcheck.ReproOpts) int {
	opts := schedOpts.Apply(diffcheck.Options{
		MaxIssues:    h.maxIssues,
		AutoAnnotate: true,
		Verify:       true,
	})

	var cells []harness.Cell
	for _, app := range corpus.Generate(n, seed) {
		k := harness.CorpusKernel(app)
		cells = append(cells, harness.Cell{Kernel: k, Opts: opts})
		for i, m := range diffcheck.Mutations(k) {
			if i >= mutate {
				break
			}
			m.Name = fmt.Sprintf("%s-mut%d", k.Name, i)
			cells = append(cells, harness.Cell{Kernel: m, Opts: opts})
		}
	}

	skips, findings := 0, 0
	for i, o := range harness.Check("diffhunt", h.jobs, cells) {
		name := cells[i].Kernel.Name
		switch {
		case o.Res.OK:
			if h.verbose {
				fmt.Fprintf(h.stdout, "ok   %s\n", name)
			}
		case o.Res.Stage.BaselineFailure():
			// The kernel itself is broken (expected for some
			// mutants): not a speculation finding.
			skips++
			if h.verbose {
				fmt.Fprintf(h.stdout, "skip %s: %v\n", name, o.Res)
			}
		default:
			findings++
			fmt.Fprintf(h.stdout, "FAIL %s: %v\n", name, o.Res)
			h.writeRepro(cells[i], o)
		}
	}

	fmt.Fprintf(h.stdout, "diffhunt: %d checked, %d ok, %d skipped, %d findings\n",
		len(cells), len(cells)-skips-findings, skips, findings)
	return findings
}

// writeRepro writes the repro of a failed cell and prints its path.
func (h hunt) writeRepro(c harness.Cell, o harness.Outcome) {
	path, err := harness.WriteRepro(h.reproDir, c, o)
	if err != nil {
		fmt.Fprintf(h.stderr, "diffhunt: writing repro for %s: %v\n", c.Kernel.Name, err)
		return
	}
	fmt.Fprintf(h.stdout, "     repro: %s\n", path)
}
