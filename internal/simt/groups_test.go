package simt

import (
	"testing"

	"specrecon/internal/ir"
)

// TestGroupsMatchesMapAndSort cross-checks the scratch-buffer grouping
// against the obvious map-and-sort implementation on randomized lane
// states, including merged PCs, waiting and exited lanes.
func TestGroupsMatchesMapAndSort(t *testing.T) {
	mod := asm(t, AllocTestKernel)
	s, err := launchSim(mod, Config{Threads: ir.WarpWidth, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ws := s.newWarp(s.ctas[0], 0)
	// A tiny deterministic generator keeps the case table reproducible.
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for trial := 0; trial < 2000; trial++ {
		for _, ln := range ws.lanes {
			ln.status = laneStatus(next(4))
			ln.pc = pcT{fn: next(2), blk: next(5), ins: next(3)}
		}
		ref := make(map[pcT]uint32)
		wantLive := false
		for l, ln := range ws.lanes {
			switch ln.status {
			case laneRunning:
				ref[ln.pc] |= 1 << l
				wantLive = true
			case laneWaiting, laneSyncing:
				wantLive = true
			}
		}
		got, live := ws.groups()
		if live != wantLive {
			t.Fatalf("trial %d: live = %v, want %v", trial, live, wantLive)
		}
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(got), len(ref))
		}
		for i, g := range got {
			if ref[g.pc] != g.mask {
				t.Fatalf("trial %d: group %v mask %08x, want %08x", trial, g.pc, g.mask, ref[g.pc])
			}
			if i > 0 && !pcLess(got[i-1].pc, g.pc) {
				t.Fatalf("trial %d: groups not sorted at %d", trial, i)
			}
		}
	}
}
