package main

import (
	"bytes"
	"os"
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
