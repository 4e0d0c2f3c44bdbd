package main

import (
	"bytes"
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

func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}

func TestSeededCampaignExitsZero(t *testing.T) {
	code, out, errOut := huntRun(t, "-n", "40", "-seed", "42", "-j", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if got, want := lastLine(out), "diffhunt: 40 checked, 40 ok, 0 skipped, 0 findings"; got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
}

// TestRepairCampaignExitsZero pins the repair campaign's counts and
// fallback rates exactly: the campaign is deterministic, so any drift
// in repair coverage or in the proof obligations shows up here. The
// n=120 case is the repair-smoke campaign.
func TestRepairCampaignExitsZero(t *testing.T) {
	for _, tc := range []struct {
		n            string
		counts, rate string
	}{
		{"10",
			"23 planted, 12 repaired, 11 fallback, 0 quiet, 54 skipped, 0 mismatches, 0 findings",
			"100.0% pre-repair -> 47.8% post-repair"},
		{"120",
			"173 planted, 41 repaired, 132 fallback, 0 quiet, 674 skipped, 0 mismatches, 0 findings",
			"100.0% pre-repair -> 76.3% post-repair"},
	} {
		code, out, errOut := huntRun(t, "-repair", "-n", tc.n, "-seed", "42", "-j", "2")
		if code != 0 {
			t.Fatalf("-n %s: exit %d, stderr %q", tc.n, code, errOut)
		}
		for _, want := range []string{
			"diffhunt repair: " + tc.counts + "\n",
			"diffhunt repair: fail-safe fallback rate " + tc.rate + "\n",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("-n %s: output lacks %q:\n%s", tc.n, want, out)
			}
		}
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "many"},
		{"-no-such-flag"},
		{"-policy", "widest"},
		{"-sched", "fastest"},
	} {
		if code, _, _ := huntRun(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if code, _, errOut := huntRun(t, "-h"); code != 0 || !strings.Contains(errOut, "-seed") {
		t.Errorf("-h: exit %d, usage %q", code, errOut)
	}
}

// TestVerboseOutputIndependentOfWorkers: per-kernel lines come out in
// corpus order whatever the worker count.
func TestVerboseOutputIndependentOfWorkers(t *testing.T) {
	for _, mode := range [][]string{
		{"-n", "60", "-v"},
		{"-repair", "-n", "10", "-v"},
	} {
		_, serial, _ := huntRun(t, append(mode, "-j", "1")...)
		_, parallel, _ := huntRun(t, append(mode, "-j", "2")...)
		if serial != parallel {
			t.Errorf("%v: -v output differs between -j 1 and -j 2:\n-j 1:\n%s\n-j 2:\n%s", mode, serial, parallel)
		}
	}
}
