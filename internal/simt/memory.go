package simt

import "specrecon/internal/ir"

// cache is a small set-associative LRU cache used to price memory
// transactions. Addresses are word indices; a warp memory instruction is
// coalesced into one transaction per distinct cache line touched by the
// active lanes (the standard GPU coalescing rule with 128-byte lines).
type cache struct {
	cfg  CacheConfig
	sets [][]int64 // per-set slice of line tags, most recent first
}

func newCache(cfg CacheConfig) *cache {
	c := &cache{cfg: cfg, sets: make([][]int64, cfg.Sets)}
	// One backing array carved into fixed-capacity per-set windows:
	// touch never grows a set past Ways, so the windows cannot collide,
	// and forking an SM costs three allocations instead of Sets+2.
	backing := make([]int64, cfg.Sets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return c
}

// access coalesces the active lanes' addresses into line transactions,
// charges hit/miss costs and updates LRU state. It returns the added
// cycle cost and updates the metrics counters.
func (c *cache) access(addrs []int64, m *Metrics) int64 {
	// Collect distinct lines; warp width is tiny so a slice scan beats
	// a map allocation.
	var lines [ir.WarpWidth]int64
	n := 0
outer:
	for _, a := range addrs {
		line := a / int64(c.cfg.LineWords)
		for i := 0; i < n; i++ {
			if lines[i] == line {
				continue outer
			}
		}
		lines[n] = line
		n++
	}
	// Transactions of one warp instruction overlap in the memory
	// pipeline: the instruction is charged the slowest transaction's
	// latency plus a throughput cost per transaction beyond the first.
	worst := 0
	for i := 0; i < n; i++ {
		m.MemTransactions++
		if c.touch(lines[i]) {
			m.CacheHits++
			if worst < c.cfg.HitCost {
				worst = c.cfg.HitCost
			}
		} else {
			m.CacheMisses++
			if worst < c.cfg.MissCost {
				worst = c.cfg.MissCost
			}
		}
	}
	if n == 0 {
		return 0
	}
	return int64(worst + (n-1)*c.cfg.TxThroughput)
}

// touch looks the line up, returns whether it hit, and installs it at the
// MRU position of its set.
func (c *cache) touch(line int64) bool {
	set := c.sets[int(uint64(line)%uint64(c.cfg.Sets))]
	for i, tag := range set {
		if tag == line {
			// Move to front.
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	if len(set) < c.cfg.Ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[int(uint64(line)%uint64(c.cfg.Sets))] = set
	return false
}
