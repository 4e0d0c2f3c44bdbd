package harness

import (
	"strings"
	"testing"

	"specrecon/internal/corpus"
	"specrecon/internal/diffcheck"
)

// TestCheckPlantedFaultReplays: a dynamic fault planted with the
// verifier off comes back from the shared loop as a finding, and the
// repro the loop writes replays to the same stage through LoadRepro.
func TestCheckPlantedFaultReplays(t *testing.T) {
	planted := Cell{Kernel: diffcheck.MatrixKernel(), Opts: diffcheck.Options{SkipReleaseN: 1, MaxIssues: 1 << 14}}
	clean := Cell{Kernel: diffcheck.MatrixKernel()}
	out := Check("test", 2, []Cell{clean, planted})
	if len(out) != 2 || !out[0].Res.OK {
		t.Fatalf("clean cell: %+v", out)
	}
	o := out[1]
	if o.Panic != nil || o.Res.OK || o.Res.Stage.BaselineFailure() {
		t.Fatalf("planted cell is not a finding: %v", o.Res)
	}

	path, err := WriteRepro(t.TempDir(), planted, o)
	if err != nil {
		t.Fatal(err)
	}
	k, ro, err := diffcheck.LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	plan, skip, err := diffcheck.ParseFault(ro.Fault)
	if err != nil {
		t.Fatal(err)
	}
	replay := diffcheck.Check(k, ro.Apply(diffcheck.Options{Faults: plan, SkipReleaseN: skip, MaxIssues: 1 << 14}))
	if replay.OK || replay.Stage != o.Res.Stage {
		t.Fatalf("repro %s replays as %v, want failure at %s", path, replay, o.Res.Stage)
	}
}

// TestCheckContainsPanic: a cell whose check panics comes back as a
// contained panic outcome while the other cells of the sweep complete,
// and its repro is written as checked, not minimized.
func TestCheckContainsPanic(t *testing.T) {
	apps := corpus.Generate(3, 42)
	cells := []Cell{
		{Kernel: CorpusKernel(apps[0])},
		{Kernel: diffcheck.Kernel{Name: "poisoned"}}, // no module: Check panics
		{Kernel: CorpusKernel(apps[2])},
	}
	for _, jobs := range []int{1, 3} {
		out := Check("test", jobs, cells)
		if !out[0].Res.OK || !out[2].Res.OK {
			t.Fatalf("jobs %d: healthy cells did not complete: %v, %v", jobs, out[0].Res, out[2].Res)
		}
		o := out[1]
		if o.Panic == nil || o.Panic.Index != 1 || o.Res.OK || o.Res.Stage != stagePanic {
			t.Fatalf("jobs %d: poisoned cell = %+v, want a contained panic", jobs, o)
		}
	}

	// The loop never re-runs a panicked cell: a panic outcome on a
	// healthy kernel is written verbatim.
	c := Cell{Kernel: CorpusKernel(apps[0])}
	pe := &TaskPanicError{Index: 0, Value: "boom"}
	path, err := WriteRepro(t.TempDir(), c, Outcome{Res: diffcheck.Result{Stage: stagePanic, Err: pe}, Panic: pe})
	if err != nil {
		t.Fatal(err)
	}
	k, _, err := diffcheck.LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(path, "-panic-") || k.Threads != c.Kernel.Threads {
		t.Errorf("panic repro %s not written as checked (threads %d, want %d)", path, k.Threads, c.Kernel.Threads)
	}
}
