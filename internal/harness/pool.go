package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The experiment harness fans its independent compile+simulate jobs out
// across a bounded worker pool. Every entry point takes a parallelism
// argument: 0 (or negative) selects runtime.GOMAXPROCS workers, 1 forces
// the fully serial path, and larger values bound the pool explicitly.
// Jobs write results into caller-owned slots keyed by job index, so the
// emitted rows are in the same deterministic order as a serial run
// regardless of scheduling; simulation itself is seeded and
// order-independent across jobs (jobs share no mutable state — each
// builds, compiles and runs its own module).

// effectiveParallelism resolves a requested parallelism to a concrete
// worker count.
func effectiveParallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// TaskPanicError is a job panic converted into a typed per-task error.
// A panicking (kernel × schedule) job in a campaign — a simulator bug,
// an out-of-range table index, a poisoned input — degrades to one
// failed task with the panic value and stack preserved, instead of
// killing the whole sweep's process: exactly the containment a
// long-running stress rig needs. errors.As surfaces it through any
// wrapping.
type TaskPanicError struct {
	// Index is the job index within the fan-out.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("task %d panicked: %v", e.Index, e.Value)
}

// safeCall runs fn(i), converting a panic into a *TaskPanicError.
func safeCall(i int, fn func(i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &TaskPanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// forEach runs fn(i) for every i in [0, n) on at most parallelism
// workers and returns the lowest-index error, matching what the serial
// loop would have reported. After an error is recorded, workers stop
// picking up new jobs; in-flight jobs still complete. A panicking job
// is contained to a typed *TaskPanicError instead of crashing the pool.
// driver labels the fan-out in the installed telemetry registry (see
// UseTelemetry); with no registry installed the instrumentation is a
// nil pointer no-op.
func forEach(driver string, parallelism, n int, fn func(i int) error) error {
	pm := poolStart(driver, n)
	defer pm.finish()
	workers := effectiveParallelism(parallelism)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			err := safeCall(i, fn)
			pm.jobDone()
			if err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		errIdx   = n
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed() {
					return
				}
				if err := safeCall(i, fn); err != nil {
					record(i, err)
				}
				pm.jobDone()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// RunTasks runs fn(i) for every i in [0, n) on at most parallelism
// workers and returns every task's error slot (nil on success), indexed
// by task. Unlike forEach, an error — or a panic, contained to a typed
// *TaskPanicError — does NOT stop the fan-out: every task runs to
// completion. The campaign loop (Check) uses it so one pathological
// kernel × schedule yields one typed finding while the sweep finishes. driver labels the fan-out in the installed telemetry
// registry.
func RunTasks(driver string, parallelism, n int, fn func(i int) error) []error {
	pm := poolStart(driver, n)
	defer pm.finish()
	errs := make([]error, n)
	workers := effectiveParallelism(parallelism)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = safeCall(i, fn)
			pm.jobDone()
		}
		return errs
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = safeCall(i, fn)
				pm.jobDone()
			}
		}()
	}
	wg.Wait()
	return errs
}
