package harness

import (
	"reflect"
	"strings"
	"testing"

	"specrecon/internal/workloads"
)

// The worker pool must be an implementation detail: running the
// experiment drivers with many workers has to produce byte-for-byte the
// same results as a serial run. These tests pin that contract for the
// two driver shapes — a flat job list (Figure7) and a flattened grid
// reassembled into a map (Sensitivity).

func TestFigure7ParallelMatchesSerial(t *testing.T) {
	cfg := workloads.BuildConfig{Tasks: 4}
	serial, err := Figure7(cfg, 1)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallel, err := Figure7(cfg, 8)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Figure7 with 8 workers differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestSensitivityParallelMatchesSerial(t *testing.T) {
	names := []string{"rsbench", "pathtracer"}
	cfg := workloads.BuildConfig{Tasks: 4}
	serial, err := Sensitivity(names, cfg, 1)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallel, err := Sensitivity(names, cfg, 8)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("variant count differs: serial %d, parallel %d", len(serial), len(parallel))
	}
	for variant, srows := range serial {
		prows := parallel[variant]
		if !reflect.DeepEqual(srows, prows) {
			t.Fatalf("Sensitivity variant %q with 8 workers differs from serial:\nserial:   %+v\nparallel: %+v", variant, srows, prows)
		}
	}
}

// TestMarkdownReportParallelMatchesSerial: the full markdown report is
// byte-identical at one and two workers. It carries no wall-clock
// figures, so any difference is a determinism bug.
func TestMarkdownReportParallelMatchesSerial(t *testing.T) {
	var serial, parallel strings.Builder
	if err := WriteMarkdownReport(&serial, workloads.BuildConfig{Tasks: 4}, 20, 1); err != nil {
		t.Fatal(err)
	}
	if err := WriteMarkdownReport(&parallel, workloads.BuildConfig{Tasks: 4}, 20, 2); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("markdown report differs between -j 1 and -j 2:\n-j 1:\n%s\n-j 2:\n%s", serial.String(), parallel.String())
	}
}
