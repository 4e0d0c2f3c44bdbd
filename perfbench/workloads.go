package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/diffcheck"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// kernels is the number of kernels one pass processes: Figure 7
	// rows, grid launches or corpus apps.
	kernels() int
	// pass processes every kernel once, as one op each.
	pass(b *bench)
	// model reports the modelled results of the last pass.
	model(f *passFacts) modelFacts
}

// modelFacts are the simulator's modelled results, not host timings.
type modelFacts struct {
	speedupX    float64 // geomean baseline cycles / speculative cycles
	simtEffPct  float64 // active lanes / (32 × issues) of speculative builds
	fallbackPct float64 // fault-planted builds ending on the PDOM fail-safe
	fallbackOf  int     // base of fallbackPct: planted builds with a target
}

// workloadDef sets a workload up; goroutines is the number of
// goroutines its passes keep busy.
type workloadDef struct {
	setup      func(*bench) (workload, error)
	goroutines int
}

var workloadDefs = map[string]workloadDef{
	"fig7":   {setupFig7, 1},
	"grid":   {setupGrid, gridWorkers},
	"corpus": {setupCorpus, 1},
}

// ---- fig7: the paper's Figure 7/8 experiment ----

type fig7Row struct {
	name string
	src  string // the workload's module, printed at setup
	cfg  simt.Config
}

type fig7 struct{ rows []fig7Row }

func setupFig7(b *bench) (workload, error) {
	f := &fig7{}
	for _, w := range workloads.Annotated() {
		inst := w.Build(workloads.BuildConfig{})
		f.rows = append(f.rows, fig7Row{
			name: w.Name,
			src:  ir.Print(inst.Module),
			cfg: simt.Config{
				Kernel: inst.Kernel, Threads: inst.Threads, Seed: b.seed,
				Memory: inst.Memory, Strict: true,
			},
		})
	}
	if len(f.rows) == 0 {
		return nil, errors.New("fig7: no annotated workloads")
	}
	return f, nil
}

func (f *fig7) kernels() int { return len(f.rows) }

func (f *fig7) pass(b *bench) {
	for i := range f.rows {
		r := &f.rows[i]
		b.op("fig7/"+r.name, func() error { return f.row(b, r) })
	}
}

// row parses the workload, builds it baseline and speculative, decodes
// both builds fresh and launches them flat; the baseline launch is the
// speculative launch's PDOM reference.
func (f *fig7) row(b *bench, r *fig7Row) error {
	m, err := b.parse(r.src)
	if err != nil {
		return err
	}
	base, _, err := b.compile(m, core.BaselineOptions(), false)
	if err != nil {
		return err
	}
	spec, _, err := b.compile(m, core.SpecReconOptions(), true)
	if err != nil {
		return err
	}
	mb, err := b.decode(base.Module, r.cfg)
	if err != nil {
		return err
	}
	ms, err := b.decode(spec.Module, r.cfg)
	if err != nil {
		return err
	}
	rb, err := b.launch("flat", mb, r.cfg)
	if err != nil {
		return err
	}
	rs, err := b.launch("flat", ms, r.cfg)
	if err != nil {
		return err
	}
	if err := b.checkLaunch("fig7/"+r.name+"/base", rb, nil); err != nil {
		return err
	}
	if err := b.checkLaunch("fig7/"+r.name+"/spec", rs, rb.Memory); err != nil {
		return err
	}
	b.facts.counts["fig7.base_cycles."+r.name] = float64(rb.Metrics.Cycles)
	b.facts.counts["fig7.spec_cycles."+r.name] = float64(rs.Metrics.Cycles)
	b.facts.counts["model.spec_issues"] += float64(rs.Metrics.Issues)
	b.facts.counts["model.spec_lanes"] += float64(rs.Metrics.ActiveLaneSum)
	return nil
}

func (f *fig7) model(pf *passFacts) modelFacts {
	logSum := 0.0
	for _, r := range f.rows {
		logSum += math.Log(pf.counts["fig7.base_cycles."+r.name] / pf.counts["fig7.spec_cycles."+r.name])
	}
	return modelFacts{
		speedupX:   math.Exp(logSum / float64(len(f.rows))),
		simtEffPct: effPct(pf.counts["model.spec_lanes"], pf.counts["model.spec_issues"]),
	}
}

func effPct(lanes, issues float64) float64 {
	if issues == 0 {
		return 0
	}
	return 100 * lanes / (float64(ir.WarpWidth) * issues)
}

// ---- grid: the speculative RSBench build as a sharded grid ----

const (
	gridCTAs    = 16
	gridCTASize = 64
	gridSMs     = 8
	gridWorkers = 2
	// sampleStride is the occupancy sampler's stride in modeled cycles.
	sampleStride = 64
)

type grid struct {
	cfg      simt.Config // greedy-converge launch
	ref      []uint64    // final memory of a serial greedy baseline launch
	baseCyc  int64       // modeled cycles of that baseline launch
	greedy   *simt.Machine
	random   *simt.Machine
	observed *simt.Machine
	profile  *obs.Profile   // merged profile of the observed launch
	smProf   []*obs.Profile // one fork per SM
	occ      *obs.OccupancyRecorder
}

func setupGrid(b *bench) (workload, error) {
	w, err := workloads.Get("rsbench")
	if err != nil {
		return nil, err
	}
	inst := w.Build(workloads.BuildConfig{
		Grid: gridCTAs, CTASize: gridCTASize, SMs: gridSMs, Workers: gridWorkers,
	})
	g := &grid{cfg: simt.Config{
		Kernel: inst.Kernel, Seed: b.seed, Memory: inst.Memory, Strict: true,
		Grid: inst.Grid, CTASize: inst.CTASize, SMs: inst.SMs, Workers: inst.Workers,
	}}
	base, err := core.Compile(inst.Module, core.BaselineOptions())
	if err != nil {
		return nil, fmt.Errorf("grid: baseline build: %w", err)
	}
	spec, err := core.Compile(inst.Module, core.SpecReconOptions())
	if err != nil {
		return nil, fmt.Errorf("grid: speculative build: %w", err)
	}
	serial := g.cfg
	serial.Workers = 1
	ref, err := simt.Run(base.Module, serial)
	if err != nil {
		return nil, fmt.Errorf("grid: reference launch: %w", err)
	}
	g.ref, g.baseCyc = ref.Memory, ref.Metrics.Cycles
	for _, mc := range []**simt.Machine{&g.greedy, &g.random, &g.observed} {
		if *mc, err = b.decode(spec.Module, g.cfg); err != nil {
			return nil, fmt.Errorf("grid: decode: %w", err)
		}
	}
	g.profile = obs.NewProfile(spec.Module)
	for i := 0; i < gridSMs; i++ {
		g.smProf = append(g.smProf, g.profile.Fork())
	}
	g.occ = obs.NewOccupancyRecorder()
	return g, nil
}

func (g *grid) kernels() int { return 3 }

func (g *grid) pass(b *bench) {
	b.op("grid/greedy", func() error {
		res, err := b.launch("grid_greedy", g.greedy, g.cfg)
		if err != nil {
			return err
		}
		b.facts.counts["grid.spec_cycles"] = float64(res.Metrics.Cycles)
		b.facts.counts["simt.sm_issue_imbalance"] = imbalance(res.PerSM)
		return b.checkLaunch("grid/greedy", res, g.ref)
	})
	b.op("grid/random", func() error {
		cfg := g.cfg
		cfg.Sched, cfg.SchedSeed = simt.SchedRandom, b.seed
		res, err := b.launch("grid_random", g.random, cfg)
		if err != nil {
			return err
		}
		return b.checkLaunch("grid/random", res, g.ref)
	})
	b.op("grid/observed", func() error { return g.observe(b) })
}

// observe launches with a per-SM profile sink and the occupancy sampler
// attached, then merges the profile and renders both reports.
func (g *grid) observe(b *bench) error {
	for _, p := range g.smProf {
		p.Reset()
	}
	g.occ.Reset()
	cfg := g.cfg
	cfg.SMEvents = func(sm int) simt.EventSink { return g.smProf[sm] }
	cfg.SampleStride = sampleStride
	cfg.Samples = g.occ
	res, err := b.launch("grid_observed", g.observed, cfg)
	if err != nil {
		return err
	}
	s := b.begin(reportLayer)
	g.profile.Reset()
	for _, p := range g.smProf {
		g.profile.Merge(p)
	}
	err = g.profile.WriteJSON(io.Discard)
	if err == nil {
		err = g.occ.WriteMarkdown(io.Discard)
	}
	b.end(s)
	if err != nil {
		return fmt.Errorf("observed report: %w", err)
	}
	if g.profile.Issues() != res.Metrics.Issues || g.occ.Len() == 0 {
		return fmt.Errorf("observed launch: profile saw %d issues of %d, %d occupancy samples",
			g.profile.Issues(), res.Metrics.Issues, g.occ.Len())
	}
	return b.checkLaunch("grid/observed", res, g.ref)
}

// imbalance is max/mean issues over the SMs of a grid launch.
func imbalance(per []simt.Metrics) float64 {
	var sum, max int64
	for _, m := range per {
		sum += m.Issues
		if m.Issues > max {
			max = m.Issues
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(per)) / float64(sum)
}

func (g *grid) model(pf *passFacts) modelFacts {
	c := pf.launches["grid_greedy"]
	if c == nil || pf.counts["grid.spec_cycles"] == 0 {
		return modelFacts{}
	}
	return modelFacts{
		speedupX:   float64(g.baseCyc) / pf.counts["grid.spec_cycles"],
		simtEffPct: effPct(float64(c.lanes), float64(c.issues)),
	}
}

// ---- corpus: the static tools over generated apps ----

// A pass takes corpusApps apps, exactly corpusAnnotated of which
// auto-annotation annotates (about the corpus's own share), so that
// every seed gives the same mix of clean and fault-planted builds.
const (
	corpusApps      = 800
	corpusAnnotated = 32
)

type corpusWL struct {
	names []string
	srcs  []string
	plans []core.FaultPlan // statically-visible fault-matrix plans
}

func setupCorpus(b *bench) (workload, error) {
	c := &corpusWL{}
	annotated, plain := 0, 0
	for _, app := range corpus.Generate(3*corpusApps, b.seed) {
		if len(core.AutoAnnotate(app.Module.Clone(), core.DefaultAutoDetectOptions())) > 0 {
			if annotated == corpusAnnotated {
				continue
			}
			annotated++
		} else {
			if plain == corpusApps-corpusAnnotated {
				continue
			}
			plain++
		}
		c.names = append(c.names, app.Name)
		c.srcs = append(c.srcs, ir.Print(app.Module))
		if len(c.srcs) == corpusApps {
			break
		}
	}
	if len(c.srcs) != corpusApps {
		return nil, fmt.Errorf("corpus: seed %d gave %d annotated and %d other apps, want %d and %d",
			b.seed, annotated, plain, corpusAnnotated, corpusApps-corpusAnnotated)
	}
	for _, f := range diffcheck.FaultMatrix() {
		if f.WantStatic {
			c.plans = append(c.plans, f.Plan)
		}
	}
	return c, nil
}

func (c *corpusWL) kernels() int { return len(c.srcs) }

func (c *corpusWL) pass(b *bench) {
	for i := range c.srcs {
		b.op("corpus/"+c.names[i], func() error { return c.app(b, i) })
	}
}

// Outcome letters of one build: clean (accepted as built), repaired,
// fallback (PDOM fail-safe), no target (the fault had nothing to hit).
const (
	outClean    = 'c'
	outRepaired = 'r'
	outFallback = 'f'
	outNoTarget = 'n'
)

// app runs the static path over one app: parse, analyze, auto-annotate,
// the clean speculative CompileSafe and, for an annotated app, one
// CompileSafe per statically-visible fault plan.
func (c *corpusWL) app(b *bench, i int) error {
	m, err := b.parse(c.srcs[i])
	if err != nil {
		return err
	}
	rep := b.analyze(m)
	annotated := len(b.autoAnnotate(m)) > 0
	_, fellBack, err := b.compile(m, core.SpecReconOptions(), true)
	if err != nil {
		return err
	}
	var out strings.Builder
	fmt.Fprintf(&out, "diags=%d annotated=%t build=%c", len(rep.Diags), annotated, outcome(fellBack, false))
	b.facts.counts["analyze.diagnostics"] += float64(len(rep.Diags))
	if annotated {
		b.facts.counts["core.autodetect.annotated"]++
		out.WriteString(" faults=")
		for _, plan := range c.plans {
			opts := core.SpecReconOptions()
			opts.Faults = plan
			sc, err := b.compileFaulted(m, opts)
			if err != nil {
				return fmt.Errorf("fault %s: %w", plan, err)
			}
			o := outcome(sc.FellBack, sc.Repaired != nil)
			if sc.FellBack && strings.Contains(sc.FallbackErr.Error(), "module has no") {
				o = outNoTarget
			}
			b.facts.counts[outcomeCount[o]]++
			out.WriteByte(o)
		}
	}
	return b.checkApp("corpus/"+c.names[i], out.String())
}

// outcomeCount names the per-pass counter of each fault-planted outcome.
var outcomeCount = map[byte]string{
	outClean: "repair.quiet", outRepaired: "repair.repaired",
	outFallback: "repair.fallback", outNoTarget: "repair.no_target",
}

func outcome(fellBack, repaired bool) byte {
	switch {
	case repaired:
		return outRepaired
	case fellBack:
		return outFallback
	}
	return outClean
}

func (c *corpusWL) model(pf *passFacts) modelFacts {
	planted := pf.counts["repair.quiet"] + pf.counts["repair.repaired"] + pf.counts["repair.fallback"]
	mf := modelFacts{fallbackOf: int(planted)}
	if planted > 0 {
		mf.fallbackPct = 100 * pf.counts["repair.fallback"] / planted
	}
	return mf
}
