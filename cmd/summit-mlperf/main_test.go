package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		wantStderr string
	}{
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"zero instances", []string{"-workload", "deepcam", "-instances", "0"}, "-instances"},
		{"negative instances", []string{"-workload", "deepcam", "-instances", "-2"}, "-instances"},
		{"unknown platform", []string{"-platform", "nosuch"}, "nosuch"},
		{"unknown sweep workload", []string{"-sweep", "nosuch"}, "nosuch"},
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
