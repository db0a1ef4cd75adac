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
// hypothesis grid runs, so the store is never opened and no verdict line is
// printed.
func TestUnknownTargetRunsNoSimulation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	var out bytes.Buffer
	err := run([]string{"-hypothesis", "dyn-recovers-infcap", "-store", dir, "chek"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown target "chek"`) {
		t.Fatalf("err = %v, want an unknown-target error", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed before failing:\n%s", out.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("store directory exists (%v): the grid ran before the target was checked", err)
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

// TestAssertWarmCountsDerivedCells: -assert-warm fails when a pass derived
// a cell, even with no simulation: a derived cell that never reached the
// store is not warm. A cold pass names both counts.
func TestAssertWarmCountsDerivedCells(t *testing.T) {
	if err := warm(0, 0); err != nil {
		t.Errorf("a pass that recalled every cell: %v", err)
	}
	if err := warm(0, 3); err == nil || !strings.Contains(err.Error(), "3 derived") {
		t.Errorf("a pass that derived 3 cells: err = %v, want an assert-warm failure naming them", err)
	}
	var out bytes.Buffer
	err := run([]string{"-scale", "small", "-hypothesis", "hints-multiply-capacity", "-assert-warm", "run"}, &out)
	if err == nil || !strings.Contains(err.Error(), "30 cells simulated and 10 derived") {
		t.Errorf("cold pass: err = %v, want an assert-warm failure over 30 simulated and 10 derived cells", err)
	}
}
