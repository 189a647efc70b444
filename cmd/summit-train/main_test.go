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
		{"zero ranks", []string{"-ranks", "0"}, "-ranks"},
		{"negative ranks", []string{"-ranks", "-3"}, "-ranks"},
		{"zero epochs", []string{"-model", "mlp", "-epochs", "0"}, "-epochs"},
		{"negative epochs", []string{"-model", "mlp", "-epochs", "-1"}, "-epochs"},
		{"zero steps", []string{"-model", "bert", "-steps", "0"}, "-steps"},
		{"unknown model", []string{"-model", "gpt"}, "gpt"},
		{"unknown optimizer", []string{"-opt", "rmsprop"}, "rmsprop"},
		{"islands do not divide ranks", []string{"-ranks", "4", "-hier", "3"}, "island size 3"},
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
