package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"
)

// span is one timed call into a layer, or one op (a kernel's whole
// processing) when name is opSpan. Layer spans point at the op span that
// caused them; op spans have parent -1.
type span struct {
	name       string
	parent     int32
	op         int32
	start, end time.Duration // since the tracer started
	alloc      uint64        // heap bytes allocated between start and end
}

const opSpan = "op"

// tracer keeps every span of a traced run in memory; they are written
// out and aggregated only once the run ends, so the hot path pays an
// append and two clock reads per span.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int32
	cur   int32 // index of the open op span, -1 outside ops
	alloc []metrics.Sample
	// passMs and passDelta accumulate Compilation.PassStats of the
	// clean builds: wall time and instruction-count change per pass.
	passMs    map[string]float64
	passDelta map[string]float64
	// compiled holds the printed module + options of every compile
	// call of the current pass; repeats counts calls whose key was
	// already there (the traffic a compile cache would serve).
	compiled        map[string]bool
	compiles        int
	compileRepeats  int
	passesCompleted int
}

func newTracer() *tracer {
	return &tracer{
		t0:        time.Now(),
		cur:       -1,
		alloc:     []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		passMs:    map[string]float64{},
		passDelta: map[string]float64{},
		compiled:  map[string]bool{},
	}
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// begin opens a span and returns its index. Op spans become the parent
// of every span opened until they end.
func (t *tracer) begin(name string) int {
	s := span{name: name, parent: t.cur, op: t.ops, alloc: t.allocBytes()}
	if name == opSpan {
		s.parent = -1
	}
	s.start = time.Since(t.t0)
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	if name == opSpan {
		t.cur = int32(i)
	}
	return i
}

func (t *tracer) end(i int) {
	s := &t.spans[i]
	s.end = time.Since(t.t0)
	s.alloc = t.allocBytes() - s.alloc
	if s.name == opSpan {
		t.cur = -1
		t.ops++
	}
}

// layerStats aggregates the spans of one layer over the traced passes.
type layerStats struct {
	calls int
	busy  time.Duration
	self  time.Duration
	alloc uint64
	durMs []float64 // every call's duration
}

// aggregate folds the spans into per-layer statistics and returns them
// with the total op wall time. A span's self time is its duration minus
// the time its child spans cover; children of one op never overlap, so
// that is a plain subtraction. Every simt.launch.<kind> span also counts
// towards simt.launch, the total over launch kinds.
func (t *tracer) aggregate() (map[string]*layerStats, time.Duration) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerStats{}
	add := func(name string, d, self time.Duration, alloc uint64) {
		ls := out[name]
		if ls == nil {
			ls = &layerStats{}
			out[name] = ls
		}
		ls.calls++
		ls.busy += d
		ls.self += self
		ls.alloc += alloc
		ls.durMs = append(ls.durMs, float64(d)/1e6)
	}
	var opWall time.Duration
	for i, s := range t.spans {
		d := s.end - s.start
		add(s.name, d, d-child[i], s.alloc)
		if strings.HasPrefix(s.name, launchLayer+".") {
			add(launchLayer, d, d-child[i], s.alloc)
		}
		if s.name == opSpan {
			opWall += d
		}
	}
	return out, opWall
}

// noteCompile records one compile call's key for the repeat share.
func (t *tracer) noteCompile(key string) {
	t.compiles++
	if t.compiled[key] {
		t.compileRepeats++
	}
	t.compiled[key] = true
}

func (t *tracer) passDone() {
	t.compiled = map[string]bool{}
	t.passesCompleted++
}

// tailQuantile is the highest of p50/p90/p99/p99.9 that leaves at least
// ten of n samples beyond it; below 20 samples the tail is the maximum.
func tailQuantile(n int) float64 {
	tail := 1.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if float64(n)*(1-q) >= 10 {
			tail = q
		}
	}
	return tail
}

// writeChromeTrace writes the spans as a Chrome/Perfetto trace: one
// complete event per span, with its op id and parent in args.
func (t *tracer) writeChromeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%d,"alloc_bytes":%d}}`,
			name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op, s.parent, s.alloc)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
