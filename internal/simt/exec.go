package simt

import (
	"fmt"
	"math"
	"math/bits"

	"specrecon/internal/ir"
)

// issue executes one warp instruction for every lane in g, updates the
// metrics and advances lane PCs.
func (ws *warpState) issue(g group) error {
	s := ws.sim
	f := s.mod.Funcs[g.pc.fn]
	blk := f.Blocks[g.pc.blk]
	in := &blk.Instrs[g.pc.ins]
	im := &s.meta[g.pc.fn][g.pc.blk][g.pc.ins]

	active := bits.OnesCount32(g.mask)
	s.issues++
	s.metrics.Issues++
	s.metrics.ActiveLaneSum += int64(active)
	s.metrics.opClassCounts[im.class]++
	cost := im.latency

	if g.pc.ins == 0 {
		s.metrics.addBlockVisit(g.pc.fn, g.pc.blk, int64(active))
	}
	sink := s.cfg.Events

	// Memory instructions compute per-warp transaction costs from the
	// coalescing of the active lanes' addresses.
	var hits0, misses0 int64
	if im.isMem {
		addrs := ws.addrBuf[:0]
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) == 0 {
				continue
			}
			ln := ws.lanes[l]
			addrs = append(addrs, ln.regs[in.A]+in.Imm)
		}
		hits0, misses0 = s.metrics.CacheHits, s.metrics.CacheMisses
		cost += s.cache.access(addrs, &s.metrics)
		// Everything beyond the base latency is memory transaction time;
		// the occupancy sampler windows this accumulator into per-sample
		// mem-stall attribution (sample.go).
		s.memStallAcc += cost - im.latency
	}

	if sink != nil {
		ev := Event{
			Kind: EvIssue, Bar: -1, Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex, PC: im.pcid,
			Fn: int32(g.pc.fn), Blk: int32(g.pc.blk), Ins: int32(g.pc.ins),
			FnName: f.Name, BlockName: blk.Name,
			Issue: s.metrics.Issues, Cycle: s.metrics.Cycles, Cost: cost,
			Mask: g.mask,
		}
		sink.Event(ev)
		if im.isMem {
			ev.Kind = EvCacheAccess
			ev.Cost = 0
			ev.Aux = uint32(s.metrics.CacheHits-hits0)<<16 | uint32(s.metrics.CacheMisses-misses0)
			sink.Event(ev)
		}
	}

	switch in.Op {
	case ir.OpJoin:
		ws.masks[in.Bar] |= g.mask
		ws.advance(g)
	case ir.OpCancel:
		ws.masks[in.Bar] &^= g.mask
		ws.advance(g)
		ws.releaseCheck(in.Bar)
	case ir.OpWait, ir.OpWaitN:
		var blocked uint32
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) == 0 {
				continue
			}
			ln := ws.lanes[l]
			if ws.masks[in.Bar]&(1<<l) == 0 {
				// Not a participant: fall through.
				ln.pc.ins++
				continue
			}
			ln.status = laneWaiting
			ln.waitBar = in.Bar
			ws.waiting[in.Bar] |= 1 << l
			blocked |= 1 << l
			s.metrics.BarrierWaits++
		}
		if sink != nil && blocked != 0 {
			sink.Event(Event{
				Kind: EvBarrierWait, Bar: int16(in.Bar), Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex,
				PC: im.pcid, Fn: int32(g.pc.fn), Blk: int32(g.pc.blk), Ins: int32(g.pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: blocked,
			})
		}
		if in.Op == ir.OpWaitN {
			ws.releaseCheckSoft(in.Bar, int(in.Imm))
		} else {
			ws.releaseCheck(in.Bar)
		}
	case ir.OpCTABar:
		// Workgroup barrier: the active lanes block until every live
		// lane of the CTA (across all its warps) arrives at barrier
		// in.Bar; the barrier then opens for the whole CTA at once.
		var blocked uint32
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) == 0 {
				continue
			}
			ln := ws.lanes[l]
			ln.status = laneCTAWaiting
			ln.waitBar = in.Bar
			blocked |= 1 << l
		}
		n := bits.OnesCount32(blocked)
		ws.cta.blockOnBar(in.Bar, n)
		s.metrics.CTABarWaits += int64(n)
		if sink != nil && blocked != 0 {
			sink.Event(Event{
				Kind: EvCTABarWait, Bar: int16(in.Bar), Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex,
				PC: im.pcid, Fn: int32(g.pc.fn), Blk: int32(g.pc.blk), Ins: int32(g.pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: blocked,
			})
		}
		ws.cta.barCheck(s, in.Bar)
	case ir.OpWarpSync:
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) != 0 {
				ws.lanes[l].status = laneSyncing
			}
		}
		ws.syncCheck()
	case ir.OpVoteAny, ir.OpVoteAll, ir.OpBallot:
		v := voteValue(in.Op, g.mask, func(l int) bool { return ws.lanes[l].regs[in.A] != 0 })
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) != 0 {
				ws.lanes[l].regs[in.Dst] = v
			}
		}
		ws.advance(g)
	case ir.OpCall:
		callee := int(im.callee)
		if callee < 0 {
			return fmt.Errorf("call to unknown function %q", in.Callee)
		}
		ret := g.pc
		ret.ins++
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) == 0 {
				continue
			}
			ln := ws.lanes[l]
			if len(ln.stack) >= 64 {
				return fmt.Errorf("call stack overflow in lane %d", l)
			}
			ln.stack = append(ln.stack, frame{ret: ret})
			ln.pc = pcT{fn: callee}
		}
		if sink != nil {
			sink.Event(Event{
				Kind: EvCall, Bar: -1, Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex,
				PC: im.pcid, Fn: int32(g.pc.fn), Blk: int32(g.pc.blk), Ins: int32(g.pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: g.mask, Aux: uint32(callee),
			})
		}
	case ir.OpBr:
		t := blk.Succs[0]
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) != 0 {
				ws.lanes[l].pc = pcT{fn: g.pc.fn, blk: t.Index}
			}
		}
	case ir.OpCBr:
		then, els := blk.Succs[0], blk.Succs[1]
		var taken uint32
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) == 0 {
				continue
			}
			ln := ws.lanes[l]
			t := els
			if ln.regs[in.A] != 0 {
				t = then
				taken |= 1 << l
			}
			ln.pc = pcT{fn: g.pc.fn, blk: t.Index}
		}
		if sink != nil {
			sink.Event(Event{
				Kind: EvBranch, Bar: -1, Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex,
				PC: im.pcid, Fn: int32(g.pc.fn), Blk: int32(g.pc.blk), Ins: int32(g.pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: g.mask, Aux: taken,
			})
		}
	case ir.OpRet:
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) == 0 {
				continue
			}
			ln := ws.lanes[l]
			if len(ln.stack) == 0 {
				if err := ws.exitLane(l); err != nil {
					return err
				}
				continue
			}
			ln.pc = ln.stack[len(ln.stack)-1].ret
			ln.stack = ln.stack[:len(ln.stack)-1]
		}
		if sink != nil {
			sink.Event(Event{
				Kind: EvRet, Bar: -1, Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex,
				PC: im.pcid, Fn: int32(g.pc.fn), Blk: int32(g.pc.blk), Ins: int32(g.pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: g.mask,
			})
		}
	case ir.OpExit:
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) == 0 {
				continue
			}
			if err := ws.exitLane(l); err != nil {
				return err
			}
		}
	default:
		// Scalar data instructions, executed per lane.
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) == 0 {
				continue
			}
			if err := ws.execScalar(ws.lanes[l], in); err != nil {
				return fmt.Errorf("lane %d at %s.%s#%d: %w", l, f.Name, blk.Name, g.pc.ins, err)
			}
		}
		ws.advance(g)
	}

	s.metrics.Cycles += cost
	return nil
}

// voteValue evaluates a warp-synchronous vote over the active lanes of
// mask: the predicate runs per lane and the combined result is written
// to every active lane. The result depends on which lanes are converged
// at the instruction — exactly why these ops pin down convergence.
func voteValue(op ir.Opcode, mask uint32, pred func(l int) bool) int64 {
	var ballot uint32
	for l := 0; l < ir.WarpWidth; l++ {
		if mask&(1<<l) != 0 && pred(l) {
			ballot |= 1 << l
		}
	}
	switch op {
	case ir.OpVoteAny:
		if ballot != 0 {
			return 1
		}
		return 0
	case ir.OpVoteAll:
		if ballot == mask {
			return 1
		}
		return 0
	default: // OpBallot
		return int64(ballot)
	}
}

// advance steps every lane of the group past a non-control instruction.
func (ws *warpState) advance(g group) {
	for l := 0; l < ir.WarpWidth; l++ {
		if g.mask&(1<<l) != 0 && ws.lanes[l].status == laneRunning {
			ws.lanes[l].pc.ins++
		}
	}
}

// execScalar runs one data instruction for one lane.
func (ws *warpState) execScalar(ln *lane, in *ir.Instr) error {
	s := ws.sim

	// Integer B operand with optional immediate.
	ib := func() int64 {
		if in.BImm {
			return in.Imm
		}
		return ln.regs[in.B]
	}
	// Float B operand with optional immediate.
	fb := func() float64 {
		if in.BImm {
			return in.FImm
		}
		return ln.fregs[in.B]
	}
	boolToInt := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	addr := func() (int64, error) {
		a := ln.regs[in.A] + in.Imm
		if a < 0 || a >= int64(s.memLen) {
			return 0, fmt.Errorf("memory access out of bounds: address %d (memory %d words)", a, s.memLen)
		}
		return a, nil
	}
	// saddr bounds-checks a CTA shared-memory address; a module without
	// a sharedwords declaration has a zero-length segment, so any shared
	// access is rejected.
	saddr := func() (int64, error) {
		a := ln.regs[in.A] + in.Imm
		if a < 0 || a >= int64(len(ws.cta.shared)) {
			return 0, fmt.Errorf("shared memory access out of bounds: address %d (shared %d words)", a, len(ws.cta.shared))
		}
		return a, nil
	}
	switch in.Op {
	case ir.OpConst:
		ln.regs[in.Dst] = in.Imm
	case ir.OpMov:
		ln.regs[in.Dst] = ln.regs[in.A]
	case ir.OpAdd:
		ln.regs[in.Dst] = ln.regs[in.A] + ib()
	case ir.OpSub:
		ln.regs[in.Dst] = ln.regs[in.A] - ib()
	case ir.OpMul:
		ln.regs[in.Dst] = ln.regs[in.A] * ib()
	case ir.OpDiv:
		if d := ib(); d != 0 {
			ln.regs[in.Dst] = ln.regs[in.A] / d
		} else {
			ln.regs[in.Dst] = 0
		}
	case ir.OpMod:
		if d := ib(); d != 0 {
			ln.regs[in.Dst] = ln.regs[in.A] % d
		} else {
			ln.regs[in.Dst] = 0
		}
	case ir.OpMin:
		a, b := ln.regs[in.A], ib()
		if a < b {
			ln.regs[in.Dst] = a
		} else {
			ln.regs[in.Dst] = b
		}
	case ir.OpMax:
		a, b := ln.regs[in.A], ib()
		if a > b {
			ln.regs[in.Dst] = a
		} else {
			ln.regs[in.Dst] = b
		}
	case ir.OpAnd:
		ln.regs[in.Dst] = ln.regs[in.A] & ib()
	case ir.OpOr:
		ln.regs[in.Dst] = ln.regs[in.A] | ib()
	case ir.OpXor:
		ln.regs[in.Dst] = ln.regs[in.A] ^ ib()
	case ir.OpShl:
		ln.regs[in.Dst] = ln.regs[in.A] << (uint64(ib()) & 63)
	case ir.OpShr:
		ln.regs[in.Dst] = int64(uint64(ln.regs[in.A]) >> (uint64(ib()) & 63))
	case ir.OpNot:
		ln.regs[in.Dst] = ^ln.regs[in.A]
	case ir.OpNeg:
		ln.regs[in.Dst] = -ln.regs[in.A]
	case ir.OpSetEQ:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] == ib())
	case ir.OpSetNE:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] != ib())
	case ir.OpSetLT:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] < ib())
	case ir.OpSetLE:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] <= ib())
	case ir.OpSetGT:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] > ib())
	case ir.OpSetGE:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] >= ib())
	case ir.OpSelect:
		if ln.regs[in.A] != 0 {
			ln.regs[in.Dst] = ln.regs[in.B]
		} else {
			ln.regs[in.Dst] = ln.regs[in.C]
		}

	case ir.OpFConst:
		ln.fregs[in.Dst] = in.FImm
	case ir.OpFMov:
		ln.fregs[in.Dst] = ln.fregs[in.A]
	case ir.OpFAdd:
		ln.fregs[in.Dst] = ln.fregs[in.A] + fb()
	case ir.OpFSub:
		ln.fregs[in.Dst] = ln.fregs[in.A] - fb()
	case ir.OpFMul:
		ln.fregs[in.Dst] = ln.fregs[in.A] * fb()
	case ir.OpFDiv:
		ln.fregs[in.Dst] = ln.fregs[in.A] / fb()
	case ir.OpFMin:
		ln.fregs[in.Dst] = math.Min(ln.fregs[in.A], fb())
	case ir.OpFMax:
		ln.fregs[in.Dst] = math.Max(ln.fregs[in.A], fb())
	case ir.OpFNeg:
		ln.fregs[in.Dst] = -ln.fregs[in.A]
	case ir.OpFAbs:
		ln.fregs[in.Dst] = math.Abs(ln.fregs[in.A])
	case ir.OpFSqrt:
		ln.fregs[in.Dst] = math.Sqrt(ln.fregs[in.A])
	case ir.OpFExp:
		ln.fregs[in.Dst] = math.Exp(ln.fregs[in.A])
	case ir.OpFLog:
		ln.fregs[in.Dst] = math.Log(ln.fregs[in.A])
	case ir.OpFSin:
		ln.fregs[in.Dst] = math.Sin(ln.fregs[in.A])
	case ir.OpFCos:
		ln.fregs[in.Dst] = math.Cos(ln.fregs[in.A])
	case ir.OpFMA:
		ln.fregs[in.Dst] = ln.fregs[in.A]*ln.fregs[in.B] + ln.fregs[in.C]
	case ir.OpFSetEQ:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] == fb())
	case ir.OpFSetNE:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] != fb())
	case ir.OpFSetLT:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] < fb())
	case ir.OpFSetLE:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] <= fb())
	case ir.OpFSetGT:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] > fb())
	case ir.OpFSetGE:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] >= fb())
	case ir.OpItoF:
		ln.fregs[in.Dst] = float64(ln.regs[in.A])
	case ir.OpFtoI:
		ln.regs[in.Dst] = int64(ln.fregs[in.A])

	case ir.OpTid:
		ln.regs[in.Dst] = int64(ln.id)
	case ir.OpLane:
		ln.regs[in.Dst] = int64(ln.lane)
	case ir.OpNumThreads:
		ln.regs[in.Dst] = int64(s.cfg.Threads)
	case ir.OpCTAId:
		ln.regs[in.Dst] = int64(ln.cta)
	case ir.OpCTATid:
		ln.regs[in.Dst] = int64(ln.ctatid)
	case ir.OpCTASize:
		ln.regs[in.Dst] = int64(s.ctaSize)
	case ir.OpRand:
		ln.regs[in.Dst] = ln.rng.Int63()
	case ir.OpFRand:
		ln.fregs[in.Dst] = ln.rng.Float64()

	case ir.OpLoad:
		a, err := addr()
		if err != nil {
			return err
		}
		ln.regs[in.Dst] = int64(s.loadWord(a))
	case ir.OpStore:
		a, err := addr()
		if err != nil {
			return err
		}
		s.storeWord(a, uint64(ib()))
	case ir.OpFLoad:
		a, err := addr()
		if err != nil {
			return err
		}
		ln.fregs[in.Dst] = math.Float64frombits(s.loadWord(a))
	case ir.OpFStore:
		a, err := addr()
		if err != nil {
			return err
		}
		s.storeWord(a, math.Float64bits(fb()))
	case ir.OpAtomAdd:
		a, err := addr()
		if err != nil {
			return err
		}
		old := int64(s.loadWord(a))
		s.storeWord(a, uint64(old+ib()))
		ln.regs[in.Dst] = old
	case ir.OpFAtomAdd:
		a, err := addr()
		if err != nil {
			return err
		}
		old := math.Float64frombits(s.loadWord(a))
		s.storeWord(a, math.Float64bits(old+fb()))
		ln.fregs[in.Dst] = old

	case ir.OpSharedLoad:
		a, err := saddr()
		if err != nil {
			return err
		}
		ln.regs[in.Dst] = int64(ws.cta.shared[a])
		s.metrics.SharedAccesses++
	case ir.OpSharedStore:
		a, err := saddr()
		if err != nil {
			return err
		}
		ws.cta.shared[a] = uint64(ib())
		s.metrics.SharedAccesses++
	case ir.OpFSharedLoad:
		a, err := saddr()
		if err != nil {
			return err
		}
		ln.fregs[in.Dst] = math.Float64frombits(ws.cta.shared[a])
		s.metrics.SharedAccesses++
	case ir.OpFSharedStore:
		a, err := saddr()
		if err != nil {
			return err
		}
		ws.cta.shared[a] = math.Float64bits(fb())
		s.metrics.SharedAccesses++

	case ir.OpArrived:
		ln.regs[in.Dst] = int64(bits.OnesCount32(ws.waiting[in.Bar]))
	case ir.OpNop:
		// nothing
	default:
		return fmt.Errorf("unhandled opcode %s", in.Op)
	}
	return nil
}
