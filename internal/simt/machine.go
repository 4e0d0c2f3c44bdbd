package simt

import (
	"fmt"

	"specrecon/internal/ir"
)

// Machine is one module decoded for launching: NewMachine verifies the
// module and builds its decode-time side tables once, and every Run
// builds fresh launch state (memory image, cache, warps, CTAs, SM forks)
// over those shared tables. A loop that re-runs one compilation over
// many inputs (threshold sweeps, funnel stages, differential checks)
// decodes once instead of once per launch. Each Run may use any Config
// the module accepts; its Result owns all of its buffers.
type Machine struct {
	program
}

// NewMachine verifies m, validates cfg exactly like Run and decodes m.
func NewMachine(m *ir.Module, cfg Config) (*Machine, error) {
	if err := ir.VerifyModule(m); err != nil {
		return nil, fmt.Errorf("simt: module invalid: %w", err)
	}
	if _, _, err := normalizeConfig(m, cfg); err != nil {
		return nil, err
	}
	return &Machine{program: decode(m)}, nil
}

// Run launches the machine's module under cfg and simulates it to
// completion.
func (mc *Machine) Run(cfg Config) (*Result, error) {
	s, err := mc.newSim(cfg)
	if err != nil {
		return nil, err
	}
	return s.launch()
}

// newSim normalizes cfg and builds one launch's root machine state over
// the shared decode: the initial global-memory image, a cold cache and,
// on a flat launch, the single implicit CTA.
func (mc *Machine) newSim(cfg Config) (*sim, error) {
	cfg, memWords, err := normalizeConfig(mc.mod, cfg)
	if err != nil {
		return nil, err
	}
	mem := make([]uint64, memWords)
	copy(mem, cfg.Memory)
	s := &sim{
		program:  mc.program,
		cfg:      cfg,
		entryIdx: mc.fnIndex[cfg.Kernel],
		mem:      mem,
		memLen:   memWords,
		cache:    newCache(cfg.Cache.withDefaults()),
		gridMode: cfg.Grid > 0,
		ctaSize:  cfg.Threads,
	}
	if s.gridMode {
		s.ctaSize = cfg.CTASize
	} else {
		// Flat launch: the whole launch acts as one implicit CTA, which
		// gives ctabar and shared memory their degenerate-case meaning.
		s.ctas = append(s.ctas, s.newCTA(0, cfg.Threads))
	}
	return s, nil
}
