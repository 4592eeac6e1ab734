package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestRunExitCodes pins the harness exit-code contract: 0 for a clean
// measurement, 1 for a measurement failure, 2 for usage errors. CI
// gates on these codes, so a harness that prints a divergence but
// exits 0 would green-light a broken collector. A failing harness is
// appended to the table for the duration of the test, so the failure
// travels the same step loop a divergence does.
func TestRunExitCodes(t *testing.T) {
	saved := harnesses
	t.Cleanup(func() { harnesses = saved })
	harnesses = append(saved[:len(saved):len(saved)], harness{"fail", "a harness that fails",
		func(io.Writer) error { return errors.New("diverged") }})

	tests := []struct {
		name string
		args []string
		want int
		// out must appear on stdout (skipped when empty).
		out string
		// errOut must appear on stderr (skipped when empty).
		errOut string
	}{
		{name: "no flags is usage", args: nil, want: 2, errOut: "Usage"},
		{name: "unknown flag is usage", args: []string{"-nope"}, want: 2, errOut: "flag provided but not defined"},
		{name: "bad flag value is usage", args: []string{"-table1=maybe"}, want: 2},
		{name: "table1", args: []string{"-table1"}, want: 0, out: "Table 1"},
		{name: "table2", args: []string{"-table2"}, want: 0, out: "Table 2"},
		{name: "refine", args: []string{"-refine"}, want: 0, out: "refinements"},
		{name: "decode", args: []string{"-decode"}, want: 0, out: "decode cost"},
		{name: "compare checks outputs", args: []string{"-compare"}, want: 0, out: "conservative"},
		{name: "generational checks outputs", args: []string{"-generational"}, want: 0, out: "scavenging"},
		{
			name: "failing step is a failure",
			args: []string{"-table1", "-fail"},
			want: 1, out: "Table 1", errOut: "paperbench: diverged",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
			}
			if tc.out != "" && !strings.Contains(stdout.String(), tc.out) {
				t.Errorf("stdout missing %q:\n%s", tc.out, stdout.String())
			}
			if tc.errOut != "" && !strings.Contains(stderr.String(), tc.errOut) {
				t.Errorf("stderr missing %q:\n%s", tc.errOut, stderr.String())
			}
		})
	}
}
