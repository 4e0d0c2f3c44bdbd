package main

import (
	"bytes"
	"strings"
	"testing"
)

// figRun runs the command in-process and returns its exit status and
// output streams.
func figRun(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string // expected in stderr
	}{
		{[]string{"-fig", "11"}, `unknown figure "11"`},
		{[]string{"-policy", "widest"}, "widest"},
		{[]string{"-sched", "fastest"}, "fastest"},
		{[]string{"-fig", "7", "extra"}, `unexpected argument "extra"`},
		{[]string{"-no-such-flag"}, "no-such-flag"},
		{[]string{"-j", "many"}, "many"},
	} {
		code, out, errOut := figRun(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if out != "" {
			t.Errorf("%v: printed %q to stdout on a usage error", tc.args, out)
		}
		if !strings.Contains(errOut, tc.msg) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, errOut, tc.msg)
		}
	}
	if code, _, errOut := figRun(t, "-h"); code != 0 || !strings.Contains(errOut, "-fig") {
		t.Errorf("-h: exit %d, usage %q", code, errOut)
	}
}

// TestFigure8IndependentOfWorkers: a figure's stdout is byte-identical
// whatever the experiment worker count.
func TestFigure8IndependentOfWorkers(t *testing.T) {
	code, serial, errOut := figRun(t, "-fig", "8", "-j", "1")
	if code != 0 {
		t.Fatalf("-j 1: exit %d, stderr %q", code, errOut)
	}
	if !strings.HasPrefix(serial, "Figure 8: ") {
		t.Fatalf("-j 1: output does not start with the Figure 8 title:\n%s", serial)
	}
	code, parallel, errOut := figRun(t, "-fig", "8", "-j", "2")
	if code != 0 {
		t.Fatalf("-j 2: exit %d, stderr %q", code, errOut)
	}
	if serial != parallel {
		t.Errorf("-fig 8 output differs between -j 1 and -j 2:\n-j 1:\n%s\n-j 2:\n%s", serial, parallel)
	}
}
