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
		{"zero nodes", []string{"-nodes", "0"}, "-nodes"},
		{"negative nodes", []string{"-nodes", "-3"}, "-nodes"},
		{"machine smaller than a job", []string{"-nodes", "10"}, "machine has 10"},
		{"negative hours", []string{"-hours", "-5"}, "-hours"},
		{"zero hours", []string{"-hours", "0"}, "-hours"},
		{"infinite hours", []string{"-hours", "+Inf"}, "-hours"},
		{"NaN hours", []string{"-hours", "NaN"}, "-hours"},
		{"zero horizon", []string{"-horizon", "0"}, "-horizon"},
		{"negative horizon", []string{"-horizon", "-1"}, "-horizon"},
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

// TestRunSmallWorkload: a valid small run exits 0 and prints every
// section of the report.
func TestRunSmallWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-hours", "20000", "-horizon", "24"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d (stderr: %s)", got, stderr.String())
	}
	for _, want := range []string{"workload:", "utilization:", "realized node-hours by program:",
		"INCITE", "largest jobs:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report missing %q:\n%s", want, stdout.String())
		}
	}
}
