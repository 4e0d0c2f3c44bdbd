package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The calibration loop is a fixed piece of work that shares no code
// with the repository's packages: xorshift-driven loads and stores over
// a 256 KB table, then JSON round trips of a fixed document through the
// standard library. The second half has the large code footprint and
// indirect branches of the simulator, which the first lacks; the sum
// tracks the host's speed better than either half. Timing the loop
// between segments of a pass measures how fast the host runs at that
// moment, so kernel_ms and setup_s can divide out the host-speed swings
// of a shared machine while a change to the program still moves them in
// full.
const (
	calibWords = 1 << 15
	calibIters = 1 << 17
	calibJSON  = 6 // JSON round trips per loop
	// calibNominal is the loop's duration on an uncontended core of the
	// reference host (2-core Xeon VM); it only scales the metrics.
	calibNominal = 1500 * time.Microsecond
	// calibSegment is the least work between two calibrations; a pass
	// is cut into segments at op boundaries.
	calibSegment = 50 * time.Millisecond
)

// calibration times the passes of one run in segments, each bracketed
// by two runs of the calibration loop.
type calibration struct {
	par      int           // goroutines the loop runs on
	last     time.Duration // the loop's duration before the open segment
	segStart time.Time
	// raw and rel sum the current pass's segments: wall time, and wall
	// time scaled by calibNominal over the mean of the two loop times
	// around each segment.
	raw, rel time.Duration
}

func newCalibration(par int) *calibration {
	return &calibration{par: par, last: calibrate(par)}
}

func (c *calibration) startPass() {
	c.raw, c.rel = 0, 0
	c.segStart = time.Now()
}

// cut closes the open segment, when due or when force is set, and opens
// the next one.
func (c *calibration) cut(force bool) {
	d := time.Since(c.segStart)
	if !force && d < calibSegment {
		return
	}
	after := calibrate(c.par)
	c.raw += d
	c.rel += time.Duration(float64(d) * 2 * float64(calibNominal) / float64(c.last+after))
	c.last = after
	c.segStart = time.Now()
}

// calibSink keeps the loop's result live.
var calibSink atomic.Uint64

// calibrate runs the loop on par goroutines at once, each over its own
// table, and returns the wall time until all have finished. par matches
// the goroutines a workload's passes keep busy, so that the loop sees
// the same vCPUs the passes see.
func calibrate(par int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			calibSink.Add(calibLoop(seed))
		}(uint64(g) + 88172645463325252)
	}
	wg.Wait()
	return time.Since(start)
}

func calibLoop(x uint64) uint64 {
	table := make([]uint64, calibWords)
	var acc uint64
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ acc) & (calibWords - 1)
		if x&3 == 0 {
			acc += table[j]
		} else {
			table[j] ^= acc + x
		}
	}
	for r := 0; r < calibJSON; r++ {
		var d calibDoc
		if err := json.Unmarshal(calibSrc, &d); err != nil {
			panic(err) // calibSrc is marshalled from a calibDoc
		}
		sort.Slice(d.Items, func(i, j int) bool { return d.Items[i].Path < d.Items[j].Path })
		out, err := json.Marshal(d)
		if err != nil {
			panic(err)
		}
		acc += uint64(len(out))
	}
	return acc
}

type calibDoc struct {
	Name  string            `json:"name"`
	Vals  []float64         `json:"vals"`
	Tags  map[string]string `json:"tags"`
	Items []calibItem       `json:"items"`
}

type calibItem struct {
	ID   int      `json:"id"`
	Path string   `json:"path"`
	Keys []string `json:"keys"`
}

// calibSrc is the fixed document the loop round-trips, about 3 KB.
var calibSrc = func() []byte {
	d := calibDoc{Name: "calibration", Tags: map[string]string{}}
	for i := 0; i < 40; i++ {
		n := strconv.Itoa(i)
		d.Vals = append(d.Vals, float64(i)*1.37)
		d.Tags["k"+n] = strconv.Itoa(i * i)
		d.Items = append(d.Items, calibItem{ID: i, Path: "/a/b/" + strconv.Itoa(39-i), Keys: []string{"x", "y", n}})
	}
	src, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return src
}()
