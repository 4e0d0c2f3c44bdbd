package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"specrecon/internal/telemetry"
	"specrecon/internal/workloads"
)

// TestTelemetrySmoke is the end-to-end fleet-telemetry path: install a
// registry, run a small grid workload sweep with occupancy collection,
// then scrape the HTTP endpoint and check that the worker-pool and
// per-SM occupancy/stall series all surface on /metrics, that the JSON
// snapshot parses, and that /healthz answers.
func TestTelemetrySmoke(t *testing.T) {
	reg := telemetry.New()
	prevReg := UseTelemetry(reg)
	t.Cleanup(func() { UseTelemetry(prevReg) })

	cfg := workloads.BuildConfig{Tasks: 4}
	if _, err := Figure7(cfg, 2); err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	occs, err := CollectOccupancy(cfg, 0, 2)
	if err != nil {
		t.Fatalf("CollectOccupancy: %v", err)
	}
	if len(occs) == 0 {
		t.Fatal("no workloads sampled")
	}
	sampled := 0
	for _, wo := range occs {
		sampled += wo.Rec.Len()
	}
	if sampled == 0 {
		t.Fatal("occupancy collection recorded no samples")
	}

	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, series := range []string{
		"harness_pool_tasks_total",
		"harness_pool_driver_seconds_bucket",
		"simt_sm_issue_efficiency",
		"simt_sm_stall_barrier_frac",
		"simt_sm_avg_resident",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if !strings.Contains(metrics, `driver="figure7"`) ||
		!strings.Contains(metrics, `driver="occupancy"`) {
		t.Errorf("/metrics missing driver labels:\n%s", metrics)
	}

	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("JSON snapshot empty")
	}
	if got := get("/healthz"); !strings.Contains(got, "ok") {
		t.Errorf("/healthz = %q", got)
	}
}

// TestReportDeterministicWithTelemetry pins that observing a sweep does
// not perturb it: Figure7 rows are byte-identical with and without a
// registry installed, at any worker count.
func TestReportDeterministicWithTelemetry(t *testing.T) {
	cfg := workloads.BuildConfig{Tasks: 4}
	bare, err := Figure7(cfg, 1)
	if err != nil {
		t.Fatalf("bare: %v", err)
	}
	prev := UseTelemetry(telemetry.New())
	t.Cleanup(func() { UseTelemetry(prev) })
	observed, err := Figure7(cfg, 4)
	if err != nil {
		t.Fatalf("observed: %v", err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Fatalf("telemetry perturbed Figure7 rows:\nbare:     %+v\nobserved: %+v", bare, observed)
	}
}

// TestOccupancySection renders the report section over a real
// collection and checks workload headers and the summary table.
func TestOccupancySection(t *testing.T) {
	occs, err := CollectOccupancy(workloads.BuildConfig{Tasks: 4}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteOccupancySection(&buf, occs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "## SM occupancy and stall attribution") {
		t.Error("missing section header")
	}
	for _, wo := range occs {
		if !strings.Contains(out, "### "+wo.Name) {
			t.Errorf("missing workload header %q", wo.Name)
		}
	}
	if !strings.Contains(out, "| sm | samples | avg resident |") {
		t.Error("missing per-SM summary table")
	}
}
