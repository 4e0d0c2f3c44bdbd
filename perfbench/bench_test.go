package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden.json from a pass at the default seed")

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// tests hold the program to.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// lastLine runs the program and decodes the last line of its output.
func lastLine(t *testing.T, args ...string) map[string]json.RawMessage {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return out
}

func keys[V any](m map[string]V) []string {
	var k []string
	for n := range m {
		k = append(k, n)
	}
	sort.Strings(k)
	return k
}

// TestResultLineMatchesBenchmarkJSON holds the result line to the
// declared metrics: exactly the end-to-end metrics untraced, exactly the
// per-layer metrics traced, each with its declared unit.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bj.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, wl := range []string{"fig7", "grid", "corpus"} {
		for _, trace := range []string{"0", "1"} {
			out := lastLine(t, "--workload", wl, "--seed", "3", "--seconds", "0.1", "--trace", trace)
			if got := strings.Join(keys(out), ","); got != "attempted,correct,failed,metrics" {
				t.Fatalf("%s trace %s: result keys %s", wl, trace, got)
			}
			var correct bool
			var attempted, failed int
			var metrics map[string]metric
			for k, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
				if err := json.Unmarshal(out[k], dst); err != nil {
					t.Fatalf("%s: %v", k, err)
				}
			}
			if !correct || failed != 0 || attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", wl, trace, correct, attempted, failed)
			}
			if got, w := strings.Join(keys(metrics), ","), strings.Join(keys(want[trace]), ","); got != w {
				t.Fatalf("%s trace %s: metrics\n got %s\nwant %s", wl, trace, got, w)
			}
			for name, m := range metrics {
				if m.Unit != want[trace][name] {
					t.Errorf("%s: %s unit %q, want %q", wl, name, m.Unit, want[trace][name])
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl, name, m.Value)
				}
			}
			if trace == "1" {
				for _, layer := range timedLayers {
					if _, ok := metrics[layer+".self_ms"]; !ok {
						t.Errorf("%s: no self time for %s", wl, layer)
					}
				}
			}
		}
	}
}

func TestUnknownWorkloadFailsWithoutResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// TestGoldenAtDefaultSeed runs every workload once at the default seed
// against the committed outcomes; -update rewrites them instead.
func TestGoldenAtDefaultSeed(t *testing.T) {
	b := newBench(defaultSeed)
	if *update {
		b.expectLaunch, b.expectApp = map[string]fingerprint{}, map[string]string{}
	}
	for _, name := range []string{"fig7", "grid", "corpus"} {
		w, err := workloadDefs[name].setup(b)
		if err != nil {
			t.Fatal(err)
		}
		b.runPass(w)
	}
	if b.failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", b.failed, b.attempted, b.failures)
	}
	if *update {
		data, err := json.MarshalIndent(golden{Seed: defaultSeed, Launches: b.expectLaunch, Apps: b.expectApp}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	g := committedGolden()
	if len(b.expectLaunch) != len(g.Launches) || len(b.expectApp) != len(g.Apps) {
		t.Fatalf("ran %d launches and %d apps, golden.json has %d and %d",
			len(b.expectLaunch), len(b.expectApp), len(g.Launches), len(g.Apps))
	}
}

// TestFailuresAreCounted shows that a perturbed fingerprint, a corrupted
// reference memory image and a changed compile outcome each count as
// failed ops rather than passing or aborting the run.
func TestFailuresAreCounted(t *testing.T) {
	const seed = 7
	b := newBench(seed)
	f, err := setupFig7(b)
	if err != nil {
		t.Fatal(err)
	}
	b.runPass(f)
	key := "fig7/" + f.(*fig7).rows[0].name + "/spec"
	fp := b.expectLaunch[key]
	fp.Cycles++
	b.expectLaunch[key] = fp
	b.runPass(f)
	if b.failed != 1 || !strings.Contains(b.failures[0], key) {
		t.Fatalf("perturbed fingerprint: %d failed ops %v, want 1 naming %s", b.failed, b.failures, key)
	}

	b = newBench(seed)
	g, err := setupGrid(b)
	if err != nil {
		t.Fatal(err)
	}
	ref := g.(*grid).ref
	for i := range ref {
		ref[i] ^= 1 << 62
	}
	b.runPass(g)
	if b.failed != 3 || b.attempted != 3 {
		t.Fatalf("corrupted reference memory: %d of %d ops failed, want 3 of 3: %v", b.failed, b.attempted, b.failures)
	}

	b = newBench(seed)
	c, err := setupCorpus(b)
	if err != nil {
		t.Fatal(err)
	}
	b.runPass(c)
	b.expectApp["corpus/"+c.(*corpusWL).names[5]] += "x"
	b.runPass(c)
	if b.failed != 1 {
		t.Fatalf("changed compile outcome: %d failed ops, want 1: %v", b.failed, b.failures)
	}
}

// TestPlantedLaunchDelayIsFlagged plants a 20% delay inside the timed
// launch region. kernel_ms of fig7 and grid, whose passes are mostly
// launches, must worsen by more than the metric's bound; corpus, which
// launches nothing, must stay within it. On one set-up, rounds of timed
// passes without and then with the delay alternate, so that each pair
// of rounds sees the same host; the change is the median over pairs of
// the ratio of their median calibrated pass times.
func TestPlantedLaunchDelayIsFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	var bound float64
	for _, m := range loadBenchmarkJSON(t).EndToEnd {
		if m.Name == "kernel_ms" {
			bound = m.Bound
		}
	}
	spin := func(d time.Duration) {
		for deadline := time.Now().Add(d / 5); time.Now().Before(deadline); {
		}
	}
	for _, tc := range []struct {
		workload string
		flagged  bool
	}{{"fig7", true}, {"grid", true}, {"corpus", false}} {
		def := workloadDefs[tc.workload]
		b := newBench(defaultSeed)
		w, err := def.setup(b)
		if err != nil {
			t.Fatal(err)
		}
		b.runPass(w)
		var ratios []float64
		for pair := 0; pair < 30; pair++ {
			b.plant = nil
			_, base := timedPasses(b, w, def.goroutines, 0)
			b.plant = spin
			_, slow := timedPasses(b, w, def.goroutines, 0)
			ratios = append(ratios, median(slow)/median(base))
		}
		if b.failed != 0 {
			t.Fatalf("%s: %v", tc.workload, b.failures)
		}
		worse := median(ratios) - 1
		t.Logf("%s: calibrated pass time %+.1f%% with the planted delay (median of %d pairs; bound %.0f%%)",
			tc.workload, 100*worse, len(ratios), 100*bound)
		if flagged := worse > bound; flagged != tc.flagged {
			t.Errorf("%s: flagged=%v, want %v", tc.workload, flagged, tc.flagged)
		}
	}
}
