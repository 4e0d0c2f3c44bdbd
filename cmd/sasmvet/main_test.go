package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// vetRun runs the command in-process and returns its exit status and
// output streams.
func vetRun(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

const listing1 = "../../testdata/repair/listing1.sasm"

// TestFixExitContract pins the repaired-versus-fallback distinction: a
// repairable injected fault is fixed and exits 0, while the designated
// unrepairable fault (SR1003 carries no machine edit) applies no edit
// and keeps exit 1.
func TestFixExitContract(t *testing.T) {
	for _, tc := range []struct {
		inject  string
		code    int
		summary string
	}{
		{"drop-cancel@1", 0, "sasmvet: 1 module(s): 1 error(s), 0 warning(s), 0 note(s); 1 edit(s) applied, 0 error(s) remain\n"},
		{"drop-wait@1", 1, "sasmvet: 1 module(s): 1 error(s), 0 warning(s), 0 note(s); 0 edit(s) applied, 1 error(s) remain\n"},
	} {
		code, out, errOut := vetRun(t, "-q", "-compiled", "-inject", tc.inject, "-fix", listing1)
		if code != tc.code {
			t.Errorf("-inject %s: exit %d, want %d (stderr %q)", tc.inject, code, tc.code, errOut)
		}
		if out != tc.summary {
			t.Errorf("-inject %s: output %q, want %q", tc.inject, out, tc.summary)
		}
	}
}

// TestOrphanWaitExitsOne: a wait on a barrier nothing joins is an
// SR1001 error, which fails the default -fail-on error gate.
func TestOrphanWaitExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "orphan.sasm")
	src := "module orphan memwords=16\n\nfunc @k nregs=1 nfregs=0 {\nentry:\n  wait b0\n  exit\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := vetRun(t, path)
	if code != 1 {
		t.Errorf("exit %d, want 1 (stderr %q)", code, errOut)
	}
	if !strings.Contains(out, "error: SR1001: ") {
		t.Errorf("output lacks an SR1001 error:\n%s", out)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-fail-on", "fatal", listing1},
		{"-inject", "drop-cancel@1", listing1},
		{},
		{"no-such-file.sasm"},
	} {
		if code, _, _ := vetRun(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if code, _, errOut := vetRun(t, "-h"); code != 0 || !strings.Contains(errOut, "Exit status:") {
		t.Errorf("-h: exit %d, usage %q", code, errOut)
	}
}
