package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownTargetRunsNoSimulation: a misspelled target fails before any
// hypothesis grid runs, and so do check and write, whose error names the
// test that checks and rewrites the committed findings.
func TestUnknownTargetRunsNoSimulation(t *testing.T) {
	for _, c := range []struct{ target, want string }{
		{"chek", `unknown target "chek"`},
		{"check", "go test ./hypotheses -run TestFindings"},
		{"write", "go test ./hypotheses -run TestFindings"},
	} {
		failsBeforeSimulation(t, []string{"-hypothesis", "dyn-recovers-infcap", c.target}, c.want)
	}
}

// TestBadHypothesisListRunsNoSimulation: every -hypothesis name must be
// registered and listed once; a repeat would evaluate and print one
// hypothesis twice.
func TestBadHypothesisListRunsNoSimulation(t *testing.T) {
	for _, c := range []struct{ names, want string }{
		{"no-such-hypothesis", `unknown hypothesis "no-such-hypothesis"`},
		{"signature-false-conflicts,signature-false-conflicts", `"signature-false-conflicts" listed twice`},
		{"dyn-recovers-infcap, htm-vs-stm,dyn-recovers-infcap", `"dyn-recovers-infcap" listed twice`},
	} {
		failsBeforeSimulation(t, []string{"-scale", "small", "-hypothesis", c.names, "run"}, c.want)
	}
}

// failsBeforeSimulation runs hintm-exp on args with a fresh -store and
// requires an error containing want, with nothing printed and the store
// never opened.
func failsBeforeSimulation(t *testing.T, args []string, want string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	var out bytes.Buffer
	err := run(append([]string{"-store", dir}, args...), &out)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("hintm-exp %v: err = %v, want it to contain %q", args, err, want)
	}
	if out.Len() != 0 {
		t.Errorf("hintm-exp %v: printed before failing:\n%s", args, out.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("hintm-exp %v: store directory exists (%v): a grid ran before the arguments were checked", args, err)
	}
}

// TestNegativeWorkersIsUsageError: -workers below zero is a usage error
// (exit 2) while the flags parse, for every target: before the store is
// opened or any hypothesis grid runs, and before list prints.
func TestNegativeWorkersIsUsageError(t *testing.T) {
	if childRun() {
		return
	}
	for _, target := range []string{"list", "run"} {
		usageExit(t, "TestNegativeWorkersIsUsageError", "-hypothesis dyn-recovers-infcap -workers -3", target, "-workers")
	}
}

// TestNegativeTimeoutIsUsageError: a negative -timeout is a usage error
// (exit 2) before the store opens or anything runs, not "no timeout".
func TestNegativeTimeoutIsUsageError(t *testing.T) {
	if childRun() {
		return
	}
	usageExit(t, "TestNegativeTimeoutIsUsageError", "-scale small -hypothesis dyn-recovers-infcap -timeout -1s", "run", "-timeout")
}

// childRun runs hintm-exp on HINTM_EXP_ARGS when the test binary is the
// child process usageExit starts, and reports whether it was.
func childRun() bool {
	args := os.Getenv("HINTM_EXP_ARGS")
	if args == "" {
		return false
	}
	if err := run(strings.Fields(args), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return true
}

// usageExit runs hintm-exp with flags, a fresh -store and target in a child
// process of test, since the flag package exits it, and requires exit
// status 2 naming the flag, with nothing printed and no store opened.
func usageExit(t *testing.T, test, flags, target, flag string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "HINTM_EXP_ARGS="+flags+" -store "+dir+" "+target)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("hintm-exp %s %s: err = %v, want exit status 2\nstdout:\n%s", flags, target, err, stdout.String())
	}
	if !strings.Contains(stderr.String(), flag+": must not be negative") {
		t.Errorf("stderr does not name the %s usage error:\n%s", flag, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("%s: printed before failing:\n%s", target, stdout.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("store directory exists (%v): %s was checked after the store opened", err, flag)
	}
}
