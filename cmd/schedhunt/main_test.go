package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// huntRun runs the command in-process and returns its exit status and
// output streams.
func huntRun(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-repros", t.TempDir()}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSeededCampaignExitsZero(t *testing.T) {
	code, out, errOut := huntRun(t, "-n", "12", "-seed", "42", "-seeds", "7,11", "-j", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	want := "schedhunt: 96 checks (12 kernels x 4 policies x 2 seeds), 96 ok, 0 skipped, 0 findings, 0 panics\n"
	if out != want {
		t.Errorf("output %q, want %q", out, want)
	}
}

func TestStatsToStdout(t *testing.T) {
	code, out, errOut := huntRun(t, "-n", "4", "-seeds", "7", "-policies", "obe,random", "-stats", "-")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	_, js, _ := strings.Cut(out, "\n")
	var st Stats
	if err := json.Unmarshal([]byte(js), &st); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, js)
	}
	if st.Kernels != 4 || st.Checks != 8 || st.OK != 8 {
		t.Errorf("stats %+v, want 4 kernels, 8 checks, 8 ok", st)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "many"},
		{"-no-such-flag"},
		{"-policies", "greedy"},
		{"-policies", "oldest,fastest"},
		{"-policies", ","},
		{"-seeds", "seven"},
	} {
		if code, _, _ := huntRun(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if code, _, errOut := huntRun(t, "-h"); code != 0 || !strings.Contains(errOut, "-seed") {
		t.Errorf("-h: exit %d, usage %q", code, errOut)
	}
}

// TestVerboseOutputIndependentOfWorkers: per-check lines come out in
// cell order whatever the worker count.
func TestVerboseOutputIndependentOfWorkers(t *testing.T) {
	args := []string{"-n", "20", "-seeds", "7,11", "-v"}
	_, serial, _ := huntRun(t, append(args, "-j", "1")...)
	_, parallel, _ := huntRun(t, append(args, "-j", "2")...)
	if serial != parallel {
		t.Errorf("-v output differs between -j 1 and -j 2:\n-j 1:\n%s\n-j 2:\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "ok   app000-") {
		t.Errorf("-v printed no per-check lines:\n%s", serial)
	}
}
