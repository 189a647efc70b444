package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "absent.scn")
	for _, tc := range []struct {
		name       string
		args       []string
		wantStderr string
	}{
		{"unknown platform", []string{"-platform", "nosuch"}, "nosuch"},
		{"unknown scenario", []string{"-scenario", "no-such-scenario"}, "no-such-scenario"},
		{"missing scenario file", []string{"-scenario", missing}, "absent.scn"},
		{"unknown flag", []string{"-bogus"}, "bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", got, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run wrote to stdout:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.wantStderr)
			}
		})
	}
}

// TestRunOutputIndependentOfWorkers is the CLI's -j contract: the
// inference-worker cap cannot change a byte of stdout.
func TestRunOutputIndependentOfWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // a line the report must contain
	}{
		{"unbatched", []string{"-seed", "42", "-unbatched"}, "--- unbatched, same capacity ---"},
		{"serving storm", []string{"-seed", "42", "-scenario", "serving-storm"}, "serving-storm"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var outs [2]string
			for i, j := range []string{"1", "2"} {
				var stdout, stderr bytes.Buffer
				if got := run(append([]string{"-j", j}, tc.args...), &stdout, &stderr); got != 0 {
					t.Fatalf("-j %s: exit %d (stderr: %s)", j, got, stderr.String())
				}
				outs[i] = stdout.String()
			}
			if outs[0] != outs[1] {
				t.Fatalf("-j 1 and -j 2 stdout differ:\n--- j1 ---\n%s\n--- j2 ---\n%s", outs[0], outs[1])
			}
			if !strings.HasPrefix(outs[0], "workload: ") || !strings.Contains(outs[0], tc.want) {
				t.Fatalf("report lacks %q:\n%s", tc.want, outs[0])
			}
		})
	}
}
