package main

import (
	"bytes"
	"errors"
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

// TestNegativeWorkersIsUsageError: -workers below zero fails before the
// store is opened or any hypothesis grid runs.
func TestNegativeWorkersIsUsageError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	var out bytes.Buffer
	err := run([]string{"-hypothesis", "dyn-recovers-infcap", "-store", dir, "-workers", "-3", "run"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-workers -3") {
		t.Fatalf("err = %v, want a -workers usage error", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("store directory exists (%v): the grid ran before -workers was checked", err)
	}
}

// TestNegativeTimeoutIsUsageError: a negative -timeout is a usage error
// (exit 2) before the store opens or anything runs, not "no timeout". The
// command runs in a child process, since the flag package exits it.
func TestNegativeTimeoutIsUsageError(t *testing.T) {
	if args := os.Getenv("HINTM_EXP_ARGS"); args != "" {
		if err := run(strings.Fields(args), os.Stdout); err != nil {
			t.Fatal(err)
		}
		return
	}
	dir := filepath.Join(t.TempDir(), "store")
	cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeTimeoutIsUsageError$")
	cmd.Env = append(os.Environ(), "HINTM_EXP_ARGS=-scale small -hypothesis dyn-recovers-infcap -timeout -1s -store "+dir+" run")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("hintm-exp -timeout -1s: err = %v, want exit status 2\nstdout:\n%s", err, stdout.String())
	}
	if !strings.Contains(stderr.String(), "-timeout: must not be negative") {
		t.Errorf("stderr does not name the -timeout usage error:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed before failing:\n%s", stdout.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("store directory exists (%v): -timeout was checked after the store opened", err)
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
