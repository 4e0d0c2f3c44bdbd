package harness

import (
	"errors"

	"specrecon/internal/corpus"
	"specrecon/internal/diffcheck"
)

// The differential campaigns (cmd/diffhunt, its repair leg, and
// cmd/schedhunt) share one loop: a list of cells, each a kernel under
// checker options, checked on the worker pool. Outcomes come back in
// cell order whatever the worker count, so a command that prints its
// per-cell lines after the sweep prints the same bytes at any -j. A
// panicking check is contained to its own outcome instead of killing
// the sweep.

// stagePanic marks the outcome of a check that panicked.
const stagePanic diffcheck.Stage = "panic"

// CorpusKernel wraps a generated corpus application as a checker input
// under the application's reference launch.
func CorpusKernel(app *corpus.App) diffcheck.Kernel {
	return diffcheck.Kernel{
		Name: app.Name, Module: app.Module, Entry: app.Kernel,
		Threads: app.Threads, Memory: app.Memory, Seed: app.Seed,
	}
}

// Cell is one differential check of a campaign.
type Cell struct {
	Kernel diffcheck.Kernel
	Opts   diffcheck.Options
}

// Outcome is the result of one cell. When the check panicked, Panic
// holds the contained panic and Res is a failed result at the "panic"
// stage carrying it.
type Outcome struct {
	Res   diffcheck.Result
	Panic *TaskPanicError
}

// Check runs diffcheck.Check for every cell on at most jobs workers
// (0 = GOMAXPROCS) and returns the outcomes in cell order. driver
// labels the fan-out in the installed telemetry registry.
func Check(driver string, jobs int, cells []Cell) []Outcome {
	out := make([]Outcome, len(cells))
	errs := RunTasks(driver, jobs, len(cells), func(i int) error {
		out[i].Res = diffcheck.Check(cells[i].Kernel, cells[i].Opts)
		return nil
	})
	for i, err := range errs {
		var pe *TaskPanicError
		if errors.As(err, &pe) {
			out[i] = Outcome{Res: diffcheck.Result{Stage: stagePanic, Err: pe}, Panic: pe}
		}
	}
	return out
}

// WriteRepro writes the standalone .sasm repro of a failed cell to dir
// and returns its path. A finding is minimized first; a panicked cell
// is written as checked, since re-running it to shrink could panic
// again.
func WriteRepro(dir string, c Cell, o Outcome) (string, error) {
	if o.Panic != nil {
		return diffcheck.WriteRepro(dir, c.Kernel, c.Opts, o.Res)
	}
	small, res := diffcheck.Minimize(c.Kernel, c.Opts)
	return diffcheck.WriteRepro(dir, small, c.Opts, res)
}
