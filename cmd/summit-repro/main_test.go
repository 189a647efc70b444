package main

import (
	"bytes"
	"strings"
	"testing"

	"summitscale/internal/core"
	"summitscale/internal/platform"
)

func TestRunExitCodesAndPlatformResolution(t *testing.T) {
	frontier := platform.MustLookup("frontier")
	rs1 := core.ResilienceExperimentsOn(frontier)[0]
	r := rs1.Run()
	rs1Exit, rs1Tail := 0, "summit-repro: all experiments within tolerance\n"
	if !r.Pass() {
		rs1Exit, rs1Tail = 1, ""
	}
	for _, tc := range []struct {
		name       string
		args       []string
		wantExit   int
		wantStdout string // exact, when non-empty
		wantStderr string // substring, when non-empty
	}{
		{name: "unknown experiment", args: []string{"-experiment", "Z9"},
			wantExit: 2, wantStderr: `unknown experiment "Z9"`},
		{name: "unknown platform", args: []string{"-platform", "nosuch"},
			wantExit: 2, wantStderr: "nosuch"},
		{name: "machine-aware experiment off baseline", args: []string{"-experiment", "RS1", "-platform", "frontier"},
			wantExit: rs1Exit, wantStdout: core.RenderResult(rs1, r) + rs1Tail},
		{name: "baseline-only experiment off baseline", args: []string{"-experiment", "F1", "-platform", "frontier"},
			wantExit: 2, wantStderr: `experiment "F1" is not machine-aware`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.wantExit {
				t.Fatalf("exit %d, want %d (stderr: %s)", got, tc.wantExit, stderr.String())
			}
			if tc.wantStdout != "" && stdout.String() != tc.wantStdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), tc.wantStdout)
			}
			if tc.wantExit == 2 && stdout.Len() != 0 {
				t.Errorf("rejected run wrote a report:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.wantStderr)
			}
		})
	}
}
