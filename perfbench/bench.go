package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"specrecon/internal/analyze"
	"specrecon/internal/core"
	"specrecon/internal/diffcheck"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// Layer names: spans and per-layer metrics are keyed by them.
const (
	parseLayer      = "ir.parse"
	compileLayer    = "core.compile"
	autodetectLayer = "core.autodetect"
	analyzeLayer    = "analyze"
	repairLayer     = "repair.compile_safe"
	decodeLayer     = "simt.decode"
	launchLayer     = "simt.launch"
	reportLayer     = "obs.report"
)

// launchKinds are the launch flavours the workloads run; each is timed
// as the layer simt.launch.<kind>.
var launchKinds = []string{"flat", "grid_greedy", "grid_random", "grid_observed"}

// fingerprint is the exact outcome of one launch. Every repeat of a
// launch must reproduce it.
type fingerprint struct {
	Issues      int64  `json:"issues"`
	Cycles      int64  `json:"cycles"`
	ActiveLanes int64  `json:"active_lanes"`
	MemHash     string `json:"mem_hash"`
}

func fingerprintOf(res *simt.Result) fingerprint {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range res.Memory {
		for i := range buf {
			buf[i] = byte(w >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fingerprint{
		Issues:      res.Metrics.Issues,
		Cycles:      res.Metrics.Cycles,
		ActiveLanes: res.Metrics.ActiveLaneSum,
		MemHash:     fmt.Sprintf("%016x", h.Sum64()),
	}
}

// launchCounts sums the exact counters of one launch kind over a pass.
type launchCounts struct {
	launches, issues, cycles, lanes, memTx, barrierWaits int64
}

func (c *launchCounts) add(m *simt.Metrics) {
	c.launches++
	c.issues += m.Issues
	c.cycles += m.Cycles
	c.lanes += m.ActiveLaneSum
	c.memTx += m.MemTransactions
	c.barrierWaits += m.BarrierWaits
}

// passFacts are the exact, deterministic facts of one pass: the same
// seed gives the same values on every pass.
type passFacts struct {
	launches map[string]*launchCounts
	counts   map[string]float64
}

func newPassFacts() *passFacts {
	return &passFacts{launches: map[string]*launchCounts{}, counts: map[string]float64{}}
}

func (f *passFacts) issues() int64 {
	var n int64
	for _, c := range f.launches {
		n += c.issues
	}
	return n
}

// bench is the state one run threads through every workload: the
// tracer (nil when tracing is off), the expected outcomes and the
// failure accounting.
type bench struct {
	seed uint64
	tr   *tracer
	// expect maps a launch or app key to the outcome it must
	// reproduce. At the default seed it starts as the committed golden
	// values; otherwise the first observation of each key fills it.
	expectLaunch map[string]fingerprint
	expectApp    map[string]string
	attempted    int
	failed       int
	failures     []string
	facts        *passFacts
	// plant, when set, runs inside the timed launch region with the
	// launch's own duration. Only the benchmark's tests set it, to
	// plant a slowdown the comparison must flag.
	plant func(time.Duration)
	// cal, during timed passes, cuts them into calibrated segments.
	cal *calibration
}

func newBench(seed uint64) *bench {
	b := &bench{seed: seed, expectLaunch: map[string]fingerprint{}, expectApp: map[string]string{}, facts: newPassFacts()}
	if seed == defaultSeed {
		g := committedGolden()
		for k, v := range g.Launches {
			b.expectLaunch[k] = v
		}
		for k, v := range g.Apps {
			b.expectApp[k] = v
		}
	}
	return b
}

func (b *bench) begin(layer string) int {
	if b.tr == nil {
		return -1
	}
	return b.tr.begin(layer)
}

func (b *bench) end(i int) {
	if i >= 0 {
		b.tr.end(i)
	}
}

// op runs one kernel's processing as an op: it counts one attempted
// operation, and one failed operation when fn returns an error.
func (b *bench) op(name string, fn func() error) {
	s := b.begin(opSpan)
	err := fn()
	b.end(s)
	if b.cal != nil {
		b.cal.cut(false)
	}
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf("%s: %v", name, err))
		}
	}
}

func (b *bench) parse(src string) (*ir.Module, error) {
	s := b.begin(parseLayer)
	m, err := ir.Parse(src)
	b.end(s)
	if err == nil && b.tr != nil {
		b.facts.counts["ir.instrs"] += float64(moduleInstrs(m))
	}
	return m, err
}

func moduleInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// noteCompile feeds the repeat-share and per-pass statistics of the
// traced run; untraced runs skip the module printing it needs.
func (b *bench) noteCompile(m *ir.Module, opts core.Options) {
	if b.tr != nil {
		b.tr.noteCompile(fmt.Sprintf("%+v\n%s", opts, ir.Print(m)))
	}
}

func (b *bench) notePassStats(c *core.Compilation) {
	if b.tr == nil {
		return
	}
	for _, ps := range c.PassStats {
		b.tr.passMs[ps.Pass] += float64(ps.Wall) / 1e6
		b.tr.passDelta[ps.Pass] += float64(ps.InstrDelta())
	}
}

// compile is a clean build: Compile, or CompileSafe when safe is set.
func (b *bench) compile(m *ir.Module, opts core.Options, safe bool) (*core.Compilation, bool, error) {
	b.noteCompile(m, opts)
	s := b.begin(compileLayer)
	var c *core.Compilation
	fellBack := false
	var err error
	if safe {
		var sc *core.SafeCompilation
		sc, err = core.CompileSafe(m, opts)
		if err == nil {
			c, fellBack = sc.Compilation, sc.FellBack
		}
	} else {
		c, err = core.Compile(m, opts)
	}
	b.end(s)
	if err != nil {
		return nil, false, err
	}
	b.notePassStats(c)
	return c, fellBack, nil
}

// compileFaulted is a fault-planted CompileSafe build: the verify →
// repair → fallback path.
func (b *bench) compileFaulted(m *ir.Module, opts core.Options) (*core.SafeCompilation, error) {
	b.noteCompile(m, opts)
	s := b.begin(repairLayer)
	sc, err := core.CompileSafe(m, opts)
	b.end(s)
	return sc, err
}

func (b *bench) analyze(m *ir.Module) *analyze.Report {
	s := b.begin(analyzeLayer)
	r := analyze.Analyze(m, analyze.Options{})
	b.end(s)
	return r
}

func (b *bench) autoAnnotate(m *ir.Module) []core.Candidate {
	s := b.begin(autodetectLayer)
	c := core.AutoAnnotate(m, core.DefaultAutoDetectOptions())
	b.end(s)
	return c
}

func (b *bench) decode(m *ir.Module, cfg simt.Config) (*simt.Machine, error) {
	s := b.begin(decodeLayer)
	mc, err := simt.NewMachine(m, cfg)
	b.end(s)
	return mc, err
}

// launch runs one launch of kind on mc and records its exact counters.
func (b *bench) launch(kind string, mc *simt.Machine, cfg simt.Config) (*simt.Result, error) {
	s := b.begin(launchLayer + "." + kind)
	start := time.Now()
	res, err := mc.Run(cfg)
	if b.plant != nil {
		b.plant(time.Since(start))
	}
	b.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s launch: %w", kind, err)
	}
	c := b.facts.launches[kind]
	if c == nil {
		c = &launchCounts{}
		b.facts.launches[kind] = c
	}
	c.add(&res.Metrics)
	return res, nil
}

// checkLaunch holds a launch to its expected fingerprint and, when ref
// is non-nil, its final memory to the PDOM reference image.
func (b *bench) checkLaunch(key string, res *simt.Result, ref []uint64) error {
	var errs []string
	if ref != nil {
		if err := diffcheck.SameMemory(ref, res.Memory); err != nil {
			errs = append(errs, fmt.Sprintf("memory differs from the PDOM reference: %v", err))
		}
	}
	got := fingerprintOf(res)
	if want, ok := b.expectLaunch[key]; !ok {
		b.expectLaunch[key] = got
	} else if got != want {
		errs = append(errs, fmt.Sprintf("fingerprint %+v, want %+v", got, want))
	}
	if errs != nil {
		return fmt.Errorf("%s: %s", key, strings.Join(errs, "; "))
	}
	return nil
}

// checkApp holds a corpus app's compile outcome to its expected value.
func (b *bench) checkApp(key, outcome string) error {
	want, ok := b.expectApp[key]
	if !ok {
		b.expectApp[key] = outcome
		return nil
	}
	if outcome != want {
		return fmt.Errorf("%s: outcome %q, want %q", key, outcome, want)
	}
	return nil
}

// runPass runs one pass of w with fresh per-pass facts.
func (b *bench) runPass(w workload) {
	b.facts = newPassFacts()
	w.pass(b)
	if b.tr != nil {
		b.tr.passDone()
	}
}
